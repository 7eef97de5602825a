import pytest
from mpmath import mp

from maasslab.context import PrecisionContext
from maasslab.exact import kloosterman_table
from maasslab.modforms import E4_eval, eta_eval
from maasslab.spectral import assemble_H, build_trace_table

# m-values covering: Lehmer/S(n,x) checks (|m| <= 5), the acceptance indices
# n in {-23,-47,-71,-95,-119, 1, 25, 73, 97, 145}, and every non-square
# 0 < n <= 361 needed by the depth-3/2 assembly.
SCAN_MS = tuple(sorted({0, 1, 2, 3, 4, 5, -1, -2, -3, -4, -5,
                        -6, -8, -9, -10, -11, -13, -14}))
SCAN_CMAX = 10_000

N_MAX_H = 24 * 15 + 1


@pytest.fixture(scope="session")
def ctx30():
    return PrecisionContext(digits=30)


@pytest.fixture(scope="session")
def ctx60():
    return PrecisionContext(digits=60)


def f_blocks(tau, ctx):
    """f from its defining quotient of eta and E4 at tau, 2tau, 3tau, 6tau,
    each block from the public SL2(Z) evaluators: the oracle for f_eval."""
    with mp.workdps(ctx.digits + 10):
        tau = mp.mpc(tau)
        eta = [eta_eval(k * tau, ctx) for k in (1, 2, 3, 6)]
        e4 = [E4_eval(k * tau, ctx) for k in (1, 2, 3, 6)]
        num = e4[0] - 4 * e4[1] - 9 * e4[2] + 36 * e4[3]
        return +(num / (24 * (eta[0] * eta[1] * eta[2] * eta[3]) ** 2))


@pytest.fixture(scope="session")
def f_oracle():
    return f_blocks


@pytest.fixture
def count_f_evals(monkeypatch):
    """A one-element list counting the f evaluations the trace code makes."""
    from maasslab import traces
    calls = [0]
    f_eval = traces.f_eval

    def counted(*args, **kwargs):
        calls[0] += 1
        return f_eval(*args, **kwargs)

    monkeypatch.setattr(traces, "f_eval", counted)
    return calls


@pytest.fixture(scope="session")
def ktable():
    """The one big Kloosterman scan shared by everything."""
    return kloosterman_table(SCAN_CMAX, SCAN_MS)


@pytest.fixture(scope="session")
def trace_table(ctx30, ktable):
    """Tr_n(f) for 0 < n <= 361: squares by regularized quadrature (at
    30 digits), the rest through the Kloosterman series."""
    return build_trace_table(N_MAX_H, ctx30, c_max=4000)


@pytest.fixture(scope="session")
def H_full(ctx30, trace_table):
    return assemble_H(N_MAX_H, traces=trace_table, ctx=ctx30, neg_max=N_MAX_H)


@pytest.fixture(autouse=True)
def _ambient_precision():
    # high ambient precision so that test-side comparisons can resolve
    # 1e-50-level tolerances
    old = mp.dps
    mp.dps = 85
    yield
    mp.dps = old
