"""The suite registry and its driver.

The suites can fail: breaking one route of a suite's identity makes
`run_suite` report `passed: false` with that route's label, once per
check of the route.  The suite digests pin passing runs only, so
without these cases a driver that dropped checks would still match
every digest.  The README's table of suites is checked against
`SUITES`."""

import inspect
import itertools
import re
from pathlib import Path

import pytest

from padharm import lfactors, orbital, suites
from padharm.cyclotomic import CyclotomicScalar
from padharm.qrational import QRational
from padharm.spaces import WavePacket
from padharm.suites import run_suite


def _counter(_):
    """A route whose every value differs from the last."""
    count = itertools.count()
    return lambda *args: next(count)


# (suite, flags, owner, attribute, breaker, the failure label, how many
# checks fail with that label): the breaker maps the route's function to
# a wrong one.  The count shows that no check of that route is dropped.
BROKEN_ROUTES = [
    ("section-identities", {"n": 1, "samples": 2}, suites, "invariants_of",
     lambda f: lambda R, X: ((), ()), "pi o sigma != id", 4),
    ("triangularity", {}, suites, "nu_plus",
     lambda f: lambda R, u: [[0] * 5] * 5, "nu_+ n=2", 1),
    ("nilpotent-orbits", {}, suites, "orbit_of",
     lambda f: lambda R, X, group: set(), "Delta_+ locus != orbit(xi_+)", 2),
    ("fourier", {"samples": 8}, WavePacket, "reflect",
     lambda f: lambda self: self, "double transform != reflection", 8),
    ("oi-nilpotent", {}, suites, "geometric_tail",
     lambda f: lambda *args: QRational.const(0),
     "n=1 closed form disagrees with the series oracle", 1),
    ("transfer", {"samples": 20}, suites, "transfer_factor_group",
     lambda f: lambda *args: CyclotomicScalar.one(), "equivariance failed", 3),
    ("dagger", {}, suites, "compactness_W_closed",
     lambda f: lambda *args: f(*args) + 1, "compactness identity fails", 20),
    ("germ", {}, suites, "transfer_factor_lie",
     lambda f: lambda *args, **kwargs: f(*args, **kwargs) * 2,
     "transfer factor not constant on the slice", 6),
    # one failure per point, or one naming every point: no count
    ("germ", {}, orbital, "orbital_rs_n1",
     lambda f: lambda *args: f(*args).scale(2),
     "orbital integral differs from mu", None),
    ("theorem-germ-gl", {}, orbital, "spherical_rhs",
     lambda f: lambda *args, **kwargs: f(*args, **kwargs) * 2,
     "identity fails for omega(tau) = 1", 1),
    ("local-factors", {}, lfactors, "l_eta",
     lambda f: lfactors.zeta_local, "q^(-m^2)|U_m| != Delta_m^(-1)", 4),
    ("local-constancy", {"pairs": 1}, suites, "orbital_rs", _counter,
     "value jumps between", 1),
]


@pytest.mark.parametrize(
    "suite, flags, owner, attribute, breaker, label, count", BROKEN_ROUTES,
    ids=[f"{row[0]}-{row[3]}" for row in BROKEN_ROUTES])
def test_a_broken_route_fails_its_suite(suite, flags, owner, attribute,
                                        breaker, label, count, monkeypatch):
    monkeypatch.setattr(owner, attribute, breaker(getattr(owner, attribute)))
    rep = run_suite(suite, **flags)
    assert rep["passed"] is False
    failed = sum(label in failure for failure in rep["failures"])
    assert failed == count if count else failed, rep["failures"]


def test_every_suite_has_a_broken_route():
    assert {row[0] for row in BROKEN_ROUTES} == set(suites.SUITES)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_suite_table():
    """{suite: ({flag: documented default}, seeded)} from the README's
    table of suites."""
    lines = iter(README.read_text().splitlines())
    for line in lines:
        if line == "| suite | flags | seeded |":
            break
    next(lines)  # the rule under the header
    table = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines):
        name, flags, seeded = (cell.strip()
                               for cell in line.strip("|").split("|"))
        table[name.strip("`")] = (
            dict(re.findall(r"`--(\w+)` \((?:default )?([^)]*)\)", flags)),
            {"yes": True, "no": False}[seeded])
    return table


def test_the_readme_suite_table_matches_the_registry():
    table = _readme_suite_table()
    assert list(table) == list(suites.SUITES)
    for name, fn in suites.SUITES.items():
        flags, seeded = table[name]
        # a default of None is the level rule r = 2m + 1
        assert flags == {flag: "2m + 1" if default is None else str(default)
                         for flag, default in suites.suite_flags(name).items()}
        assert seeded == ("seed" in inspect.signature(fn).parameters)


@pytest.mark.parametrize("suite", ["germ", "theorem-germ-gl"])
def test_the_germ_suites_default_to_level_2m_plus_1(suite, monkeypatch):
    levels = []
    check = orbital.check_descent_level
    monkeypatch.setattr(orbital, "check_descent_level",
                        lambda m, r: levels.append(r) or check(m, r))
    assert run_suite(suite, m=2)["passed"]
    assert set(levels) == {5}
