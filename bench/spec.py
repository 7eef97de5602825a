"""Inputs shared by the workloads and the reference maker."""

# negative indices n = 1 mod 24 whose CM traces have exact references;
# the nonsquare-traces workload draws its CM indices from here by seed
CM_POOL = tuple(-23 - 24 * k for k in range(20))

# cycle traces with trapezoid references: 73 and 97 have large fundamental
# units, 145 a small one, 193 is the index whose period overflows today
CYCLE_REFS = (73, 97, 145, 193)
SQUARE_REFS = (1, 25, 49)

LEVEL4_DS = (1, 4, 5, 8, 9, 12, 13, 16, 17)
LEVEL4_Y = 8
LEVEL1_DS = (25, 49, 73, 97)
LEVEL1_Y = 10

COEFF_NS = (-23, -47, -71, 73, 97, 145)
POLE_NS = (1, 25)
