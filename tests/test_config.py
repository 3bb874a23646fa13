"""Run-configuration validation: defaults, JSON-pointer error messages,
the contexts built once with the configuration, and the coset limit of a
run."""

import itertools
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from padharm.config import DEFAULTS, RunConfig, charge
from padharm.errors import ScaleExceeded, SchemaError


def test_empty_document_gets_defaults():
    cfg = RunConfig()
    assert cfg.p == DEFAULTS["p"]
    assert cfg.delta_fraction == Fraction(2)
    assert cfg.measure == "unnormalized"
    assert cfg.seed == 0
    assert cfg.budgets == DEFAULTS["budgets"]


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    doc = json.loads(block)
    assert set(doc) == set(DEFAULTS)
    assert vars(RunConfig(doc)) == vars(RunConfig())


def test_unknown_top_level_key():
    with pytest.raises(SchemaError, match="/bogus"):
        RunConfig({"bogus": 1})
    # the precision N is gone with the inexact norm witness
    with pytest.raises(SchemaError, match="/N: unknown configuration key"):
        RunConfig({"N": 6})


def test_p_validation_pointer():
    with pytest.raises(SchemaError, match="/p"):
        RunConfig({"p": 2})
    with pytest.raises(SchemaError, match="/p"):
        RunConfig({"p": "3"})
    with pytest.raises(SchemaError, match="/p"):
        RunConfig({"p": 7})  # exceeds budgets/max_p default


def test_delta_forms():
    assert RunConfig({"delta": 5}).delta_fraction == 5
    cfg = RunConfig({"delta": {"val": 1, "unit": 2}})
    assert cfg.delta_fraction == 6
    with pytest.raises(SchemaError, match="/delta/val"):
        RunConfig({"delta": {"val": 2}})
    with pytest.raises(SchemaError, match="/delta/unit"):
        RunConfig({"delta": {"unit": 0}})
    with pytest.raises(SchemaError, match="/delta"):
        RunConfig({"delta": "two"})


def test_character_specs():
    cfg = RunConfig({"eta": {"r_pi": "1/2", "k": 0}})
    assert cfg._eta_spec == {"r_pi": Fraction(1, 2), "k": 0}
    with pytest.raises(SchemaError, match="/eta/kind"):
        RunConfig({"eta": {"kind": "nonsense"}})
    with pytest.raises(SchemaError, match="/eta/r_pi"):
        RunConfig({"eta": {"kind": "extension", "r_pi": "1/2"}})
    with pytest.raises(SchemaError, match="/eta_prime/r_pi"):
        RunConfig({"eta_prime": {"r_pi": "x"}})


def test_budget_validation():
    cfg = RunConfig({"budgets": {"max_cosets": 10}})
    assert cfg.budgets["max_cosets"] == 10
    assert cfg.budgets["max_n"] == DEFAULTS["budgets"]["max_n"]
    with pytest.raises(SchemaError, match="/budgets/nope"):
        RunConfig({"budgets": {"nope": 1}})
    with pytest.raises(SchemaError, match="/budgets/max_n"):
        RunConfig({"budgets": {"max_n": 0}})


def test_measure_and_seed():
    assert RunConfig({"measure": "norm"}).measure == "normalized"
    assert RunConfig({"measure": "unnorm"}).measure == "unnormalized"
    with pytest.raises(SchemaError, match="/measure"):
        RunConfig({"measure": "tamagawa"})
    with pytest.raises(SchemaError, match="/seed"):
        RunConfig({"seed": -1})
    with pytest.raises(SchemaError, match="/seed"):
        RunConfig({"seed": 2**64})


def test_rejected_document_builds_nothing():
    # validation happens before any context is constructed
    with pytest.raises(SchemaError):
        RunConfig({"p": 3, "delta": 2, "seed": -1})


def test_lazy_contexts():
    cfg = RunConfig({"p": 5, "delta": 2})
    F = cfg.field()
    assert F.p == 5 and cfg.field() is F
    ext = cfg.ext()
    assert cfg.ext() is ext
    psi = cfg.psi()
    assert psi(Fraction(1)).as_rational() == 1
    eta = cfg.eta()
    assert eta(Fraction(5)).as_rational() == -1  # inert: eta(pi) = -1
    cfg.eta_prime()  # constructible
    cfg.check_rank(3)
    with pytest.raises(SchemaError, match="/n"):
        cfg.check_rank(4)


def _limit(max_cosets):
    return RunConfig({"budgets": {"max_cosets": max_cosets}}).scope()


def _refuses(p, lams):
    try:
        charge(p, lams, "test budget")
    except ScaleExceeded as exc:
        assert re.fullmatch(
            r"test budget exceeds budgets/max_cosets = \d+", str(exc))
        return True
    return False


@pytest.mark.parametrize("p", [3, 5])
def test_charge_agrees_with_the_exact_sum(p):
    # every one- and two-shell charge at lam 0..25, at the limits just
    # below, at and above its exact sum and at the ends of [1, 10^6]
    lam_lists = [[lam] for lam in range(26)] + [
        list(pair) for pair in itertools.combinations_with_replacement(
            range(26), 2)]
    for lams in lam_lists:
        exact = sum(p ** lam for lam in lams)
        limits = {1, 2, 500000, 10 ** 6, exact - 1, exact, exact + 1}
        for limit in sorted(x for x in limits if 1 <= x <= 10 ** 6):
            with _limit(limit):
                assert _refuses(p, lams) == (exact > limit), (lams, limit)


def test_charge_caps_a_huge_exponent():
    start = time.perf_counter()
    assert _refuses(3, [10 ** 9])
    with _limit(10 ** 6):
        assert _refuses(5, [1, 10 ** 9])
    assert time.perf_counter() - start < 1


def test_the_limit_holds_only_inside_its_scope():
    default = DEFAULTS["budgets"]["max_cosets"]
    assert not _refuses(3, [11])  # 3^11 = 177147 <= 500000 = default
    with _limit(10):
        assert _refuses(3, [3]) and not _refuses(3, [2])
        with _limit(default):
            assert not _refuses(3, [11])
        assert _refuses(3, [3])
    with pytest.raises(ScaleExceeded):
        with _limit(10):
            charge(3, [3], "test budget")
    assert not _refuses(3, [11]) and _refuses(3, [12])
