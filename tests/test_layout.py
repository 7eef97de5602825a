"""Layout guard: src/maasslab keeps one route per name.

Every public function and method of the package is used by the package or by
bench/ (a name, attribute, import or dotted string such as bench's traced
names, outside the function's own body), and no parameter is named
``method``.  Second routes that only tests use live in tests/support.py;
ALLOWED lists the exceptions, each with its reason."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "maasslab").glob("*.py"))

ALLOWED = {
    "special.whittaker_Wn": "the W kernel of the Fourier modes; tests check "
                            "its closed forms at s = 3/4",
    "special.whittaker_Wn_ds": "dW/ds at s = 3/4, which tests equate with 4 pi alpha",
    "special.whittaker_M": "the M kernel; tests check its closed form in beta_{1/2}",
    "special.cprime_factor": "c'(s), the normalizing factor, 4 pi/3 at s = 3/4",
    "modforms.zminus_expansion": "Zagier's form, for the transformation-law checks",
    "innerprod.ip_level4_quad2d_value": "the 2-D quadrature route at level 4",
    "modforms.E4_eval": "a block of the eta/E4 quotient, f_eval's oracle",
    "modforms.E6_eval": "E4_eval's weight-6 twin; tests check its law and build j",
    "bqf.BQF.value": "Q(x, y), with which tests check CM roots and dtau/Q(tau, 1)",
}
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _public_defs():
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            subs = node.body if isinstance(node, ast.ClassDef) else [node]
            for sub in subs:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    owner = f"{node.name}." if sub is not node else ""
                    yield f"{path.stem}.{owner}{sub.name}", sub


def _name_counts(tree) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and _DOTTED.fullmatch(str(node.value)):
            found.update(str(node.value).split("."))
    return found


def test_every_public_function_has_a_caller():
    total = Counter()
    for path in SRC + sorted((ROOT / "bench").glob("*.py")):
        total += _name_counts(ast.parse(path.read_text()))
    unused = [q for q, node in _public_defs()
              if total[node.name] <= _name_counts(node)[node.name] and q not in ALLOWED]
    assert not unused, f"public names only tests use: {unused}"
    assert set(ALLOWED) <= {q for q, _ in _public_defs()}


def test_no_method_switches():
    switches = [f"{path.stem}.{getattr(node, 'name', 'lambda')}" for path in SRC
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.Lambda))
                and "method" in {a.arg for a in ast.walk(node.args)
                                 if isinstance(a, ast.arg)}]
    assert not switches, f"method= switches: {switches}"
