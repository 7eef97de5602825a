"""maasslab: arbitrary-precision computations around a depth-3/2
polyharmonic form for the full modular group and its level-4 companion.

Modules by topic:

- exact:     Dedekind sums, eta multiplier, Kloosterman sums, partitions
- classnum:  Hurwitz class numbers, regulators, the weighted sum h*
- special:   beta/alpha kernels, Whittaker W and M, normalizing factors
- bqf:       binary quadratic forms, class sets, reduction, cusp data
- qseries:   exact truncated q-expansions
- modforms:  eta/E4/E6/f evaluators, the h_d and g_d families, F and the
             level-4 Zagier form
- harmonic:  nonholomorphic expansion containers and boundary pairing
- traces:    CM, cycle, and square-regularized traces of f
- spectral:  Kloosterman-series coefficients a(n,s), the two depth-3/2
             assemblies, xi/Laplacian/modularity operators
- innerprod: the two regularized inner products, closed and numeric
- cli:       batch command-line interface

Each public function has one route; the second routes that only the tests
take are in tests/support.py.
"""

__version__ = "0.1.0"

from .context import DEFAULT_CTX, PrecisionContext  # noqa: F401
