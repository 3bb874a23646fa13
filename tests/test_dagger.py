"""Dagger test data: admissibility predicates, shell valuations, and the
smoothed-Whittaker compactness identity."""

import random
from fractions import Fraction

import pytest

from padharm.config import RunConfig
from padharm.errors import ScaleExceeded
from padharm.padic import FieldContext, QuadExtContext
from padharm.characters import AdditiveCharacter, eta_for_extension
from padharm.dagger import (
    DaggerData,
    _constant_in_plus,
    _invariant_under_shifts,
    compactness_W_closed,
    compactness_W_direct,
    is_admissible_column,
    is_admissible_matrix,
    is_admissible_scalar,
    make_dagger_column,
    make_dagger_matrix,
    make_dagger_scalar,
    matrix_packet,
    shell_valuation,
)
from padharm.spaces import WavePacket, e_space


def supported_in(packet, m):
    """Support inside p^m O in every coordinate."""
    return all(packet.support_floor(t) >= m for t in range(packet.space.dim))


def setup_ctx(delta=2, p=3):
    F = FieldContext(p)
    psi = AdditiveCharacter(F, 0)
    return QuadExtContext(F, delta), psi


def test_shell_valuation_monotone():
    ext, psi = setup_ctx()
    vals = [shell_valuation(ext, psi, m) for m in (1, 2, 3)]
    assert vals == sorted(vals, reverse=True)


def test_scalar_admissibility():
    ext, psi = setup_ctx()
    for m in (1, 2):
        theta = make_dagger_scalar(ext, psi, m)
        assert is_admissible_scalar(ext, psi, m, theta.packet)
    # shrinking the support below the shell breaks the predicate
    good = make_dagger_scalar(ext, psi, 1)
    wrong_m = make_dagger_scalar(ext, psi, 3)
    assert not is_admissible_scalar(ext, psi, 1, wrong_m.packet) or \
        is_admissible_scalar(ext, psi, 3, wrong_m.packet)


def test_column_and_matrix_admissibility():
    # every generated scalar, column and matrix, inert and ramified
    for delta in (2, 3):
        ext, psi = setup_ctx(delta=delta)
        for m in (1, 2):
            theta = make_dagger_scalar(ext, psi, m)
            assert is_admissible_scalar(ext, psi, m, theta.packet)
            for k in (1, 2, 3):
                assert is_admissible_column(make_dagger_column(ext, psi, m, k))
            for k in (1, 2):
                assert is_admissible_matrix(make_dagger_matrix(ext, psi, m, k))


def with_packet(data, packet):
    """The same entries, with another packet."""
    return DaggerData(data.kind, data.ext, data.psi, data.m, data.k,
                      data.entries, packet)


def test_a_doubled_matrix_packet_is_not_admissible():
    ext, psi = setup_ctx()
    data = make_dagger_matrix(ext, psi, 1, 2)
    assert not is_admissible_matrix(with_packet(data, data.packet.scale(2)))


def test_a_level_2_matrix_packet_on_level_1_entries_is_not_admissible():
    ext, psi = setup_ctx()
    data = make_dagger_matrix(ext, psi, 1, 2)
    finer = make_dagger_matrix(ext, psi, 2, 2).packet
    assert not is_admissible_matrix(with_packet(data, finer))


def test_a_matrix_packet_charges_its_row_combinations():
    # four entries of two rows each: 2^4 = 16 rows, charged before any
    ext, psi = setup_ctx()
    entry = WavePacket(e_space(ext, psi, 1), [(1, (0, 0), (1, 1), (0, 0)),
                                             (1, (1, 0), (1, 1), (0, 0))])
    entries = {(i, j): entry for i in range(2) for j in range(2)}
    with RunConfig({"budgets": {"max_cosets": 15}}).scope():
        with pytest.raises(ScaleExceeded, match="matrix packet budget"):
            matrix_packet(ext, psi, 2, entries)
    with RunConfig({"budgets": {"max_cosets": 16}}).scope():
        assert len(matrix_packet(ext, psi, 2, entries).rows) == 16


def test_a_scaled_column_packet_is_not_admissible():
    ext, psi = setup_ctx()
    data = make_dagger_column(ext, psi, 1, 2)
    assert not is_admissible_column(with_packet(data, data.packet.scale(2)))


def test_ramified_scalar_admissibility():
    ext, psi = setup_ctx(delta=3)
    theta = make_dagger_scalar(ext, psi, 1)
    assert is_admissible_scalar(ext, psi, 1, theta.packet)


def test_compactness_identity_grid():
    ext, psi = setup_ctx()
    eta = eta_for_extension(ext)
    theta = make_dagger_scalar(ext, psi, 1)
    for u in (1, 2):
        for v in (-1, 0, 1):
            y = Fraction(u) * Fraction(3) ** v
            direct = compactness_W_direct(ext, psi, eta, theta, y)
            closed = compactness_W_closed(ext, psi, eta, theta, y)
            assert (direct - closed).is_zero()


def test_compactness_vanishes_deep():
    ext, psi = setup_ctx()
    eta = eta_for_extension(ext)
    theta = make_dagger_scalar(ext, psi, 1)
    # far outside the dagger shell the smoothed Whittaker value is zero
    val = compactness_W_closed(ext, psi, eta, theta, Fraction(3) ** 6)
    assert val.is_zero()


# -- the plus-coordinate clause against its definition -------------------------


def depends_on_plus(packet, m):
    """The enumeration the shift identity replaced: for each minus point of
    p^m O / p^(2m) O, compare the values at the p^m plus points.  Values are
    compared with == (not collected in a set)."""
    p = packet.space.F.p
    reps = [Fraction(j * p ** m) for j in range(p ** m)]
    for y in reps:
        first = packet.evaluate((reps[0], y))
        if any(packet.evaluate((x, y)) != first for x in reps[1:]):
            return True
    return False


def random_packet(ext, psi, m, rng):
    """A packet supported in p^m O x p^m O and invariant under p^(2m) O.
    Its plus part is either one piece (a coarse indicator, or a finer
    indicator or a phase, which depend on the plus coordinate) or the
    partition of p^m O into p cosets of p^(m+1) O with equal coefficients,
    which does not depend on it although every term does."""
    p = ext.F.p
    pm = Fraction(p) ** m
    a, y0, g0 = (rng.choice((m, 2 * m)), rng.randrange(p) * pm,
                 Fraction(rng.randrange(p ** m), p ** m) / pm)
    kind = rng.choice(("coarse", "fine", "phase", "partition"))
    if kind == "partition":
        pieces = [(m + 1, j * pm, Fraction(0)) for j in range(p)]
    elif kind == "coarse":
        pieces = [(m, Fraction(0), Fraction(0))]
    elif kind == "fine":
        pieces = [(rng.randint(m + 1, 2 * m), rng.randrange(p) * pm,
                   Fraction(0))]
    else:
        pieces = [(m, Fraction(0), Fraction(rng.randrange(1, p), p) / pm)]
    c = rng.choice((1, 2, -1))
    return WavePacket(e_space(ext, psi, 1),
                      [(c, (x0, y0), (b, a), (f0, g0)) for b, x0, f0 in pieces])


@pytest.mark.parametrize("delta", [2, 3], ids=["inert", "ramified"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_shift_identity_agrees_with_the_enumeration(m, delta):
    ext, psi = setup_ctx(delta=delta)
    rng = random.Random(f"{m}:{delta}")
    seen = set()
    for _ in range(8):
        packet = random_packet(ext, psi, m, rng)
        assert supported_in(packet, m)
        assert _invariant_under_shifts(packet, 2 * m)
        dependent = depends_on_plus(packet, m)
        assert _constant_in_plus(packet, m) is not dependent
        seen.add(dependent)
    for unit in (1, 2):
        theta = make_dagger_scalar(ext, psi, m, unit=unit).packet
        assert not depends_on_plus(theta, m)
        assert _constant_in_plus(theta, m)
        assert is_admissible_scalar(ext, psi, m, theta)
    assert seen == {True, False}


@pytest.mark.parametrize("delta", [2, 3], ids=["inert", "ramified"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_packet_that_depends_on_the_plus_coordinate(m, delta):
    # the dagger generator with its plus indicator shrunk to p^(m+1) O:
    # support and p^(2m) invariance hold, the plus clause fails
    ext, psi = setup_ctx(delta=delta)
    ((c, x0, (_, a), f0),) = make_dagger_scalar(ext, psi, m).packet.terms
    packet = WavePacket(e_space(ext, psi, 1), [(c, x0, (m + 1, a), f0)])
    assert supported_in(packet, m)
    assert _invariant_under_shifts(packet, 2 * m)
    assert depends_on_plus(packet, m)
    assert not _constant_in_plus(packet, m)
    assert not is_admissible_scalar(ext, psi, m, packet)
