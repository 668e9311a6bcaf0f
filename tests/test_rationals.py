"""Backend parity: the gmpy2 and fractions.Fraction rationals behave alike."""

import importlib.util
import sys
from fractions import Fraction

import pytest

import kahlap.rationals

# (expression on a rationals module, rat_str, rat_pretty)
TABLE = [
    (lambda r: r.rat(3, 6), "1/2", "1/2"),
    (lambda r: r.rat(-4, 2), "-2/1", "-2"),
    (lambda r: r.rat(0), "0/1", "0"),
    (lambda r: r.rat(r.rat(1, 3)), "1/3", "1/3"),
    (lambda r: r.rat(2, 3) * 3 - r.ONE, "1/1", "1"),
    (lambda r: r.rat_from_str(" -6/4 "), "-3/2", "-3/2"),
    (lambda r: r.rat_from_str("5"), "5/1", "5"),
    (lambda r: 7, "7/1", "7"),
]


def load_rationals(monkeypatch, block_gmpy2):
    """A fresh copy of kahlap.rationals, imported with or without gmpy2."""
    if block_gmpy2:
        monkeypatch.setitem(sys.modules, "gmpy2", None)
    spec = importlib.util.spec_from_file_location(
        "rationals_copy", kahlap.rationals.__file__
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend", ["fractions", "gmpy2"])
def test_backend_parity(monkeypatch, backend):
    if backend == "gmpy2":
        pytest.importorskip("gmpy2")
    r = load_rationals(monkeypatch, block_gmpy2=backend == "fractions")
    assert (r.RatType is Fraction) == (backend == "fractions")
    for expr, text, pretty in TABLE:
        x = expr(r)
        assert (r.rat_str(x), r.rat_pretty(x)) == (text, pretty)
        assert r.rat_pretty(text) == pretty  # the text form renders alike
    with pytest.raises(ZeroDivisionError):
        r.rat(1, 0)
    with pytest.raises(ValueError):
        r.rat_from_str("1/x")
