import math

import pytest

from diracpair import hydrogenic as hyd
from diracpair.core import Constants, DEFAULT_CONSTANTS

M = DEFAULT_CONSTANTS.electron_rest_energy
ALPHA = DEFAULT_CONSTANTS.fine_structure

PB = hyd.get_ion("Pb")
U = hyd.get_ion("U")


def level_oracle(z, n, j):
    # independent evaluation of the closed-form level energy
    za = z * ALPHA
    kq = j + 0.5
    denom = n - kq + math.sqrt(kq * kq - za * za)
    return M / math.sqrt(1.0 + (za / denom) ** 2)


def test_shell_label_map():
    assert (hyd.Shell.from_label("K").n, hyd.Shell.from_label("K").j) == (1, 0.5)
    assert (hyd.Shell.from_label("L1").n, hyd.Shell.from_label("L1").j) == (2, 0.5)
    assert (hyd.Shell.from_label("L2").n, hyd.Shell.from_label("L2").j) == (2, 1.5)
    assert (hyd.Shell.from_label("M").n, hyd.Shell.from_label("M").j) == (3, 0.5)
    assert (hyd.Shell.from_label("Z").n, hyd.Shell.from_label("Z").j) == (50, 0.5)
    with pytest.raises(ValueError):
        hyd.Shell.from_label("L3")
    with pytest.raises(ValueError):
        hyd.Shell(n=1, j=1.5)


def test_pb_levels_match_published_values():
    # published to 0.1 keV; CODATA constants land well inside that
    shells = {"K": 409.4, "L1": 484.9, "L2": 487.6}
    for label, expected in shells.items():
        e = hyd.level_energy(PB, hyd.Shell.from_label(label))
        assert e == pytest.approx(expected, abs=0.1)


def test_levels_match_formula_oracle():
    for ion in (PB, U, hyd.get_ion("Th"), hyd.get_ion("Ta")):
        for label in ("K", "L1", "L2", "M", "Z"):
            shell = hyd.Shell.from_label(label)
            got = hyd.level_energy(ion, shell)
            assert got == pytest.approx(level_oracle(ion.Z, shell.n, shell.j), rel=1e-14)


def test_small_charge_limit():
    light = hyd.IonSpecies(symbol="H", Z=1)
    e = hyd.level_energy(light, hyd.Shell.from_label("K"))
    assert e == pytest.approx(M, rel=1e-4)
    assert e < M


def test_supercritical_raises():
    heavy = hyd.IonSpecies(symbol="X", Z=140)  # Z alpha0 > 1 for j = 1/2
    with pytest.raises(ValueError):
        hyd.level_energy(heavy, hyd.Shell.from_label("K"))


def test_level_decreases_with_charge():
    prev = M
    for z in (10, 30, 50, 70, 90, 110, 130):
        e = hyd.level_energy(hyd.IonSpecies(symbol=f"Z{z}", Z=z), hyd.Shell.from_label("K"))
        assert e < prev
        prev = e


def test_k_level_vanishes_at_critical_charge():
    # Z -> 1/alpha0: the K level drops to zero from above
    z_crit = int(1.0 / ALPHA)  # 137
    e = hyd.level_energy(hyd.IonSpecies(symbol="C137", Z=z_crit), hyd.Shell.from_label("K"))
    assert 0.0 < e < 0.05 * M


def test_pb_transition_table_values():
    expected = {
        ("K", "K"): 818.8,
        ("K", "L1"): 894.3,
        ("K", "L2"): 897.0,
        ("L1", "L1"): 969.8,
        ("L2", "L2"): 975.2,
    }
    for (up, lo), value in expected.items():
        tr = hyd.pair_transition_energy(PB, hyd.Shell.from_label(up), hyd.Shell.from_label(lo))
        assert tr.delta_eps == pytest.approx(value, abs=0.2)
        assert 0.0 < tr.delta_eps < 2.0 * M


def test_same_shell_transition_is_twice_the_level():
    k = hyd.Shell.from_label("K")
    tr = hyd.pair_transition_energy(U, k, k)
    assert tr.delta_eps == pytest.approx(2.0 * hyd.level_energy(U, k), rel=1e-15)
    assert tr.delta_eps == pytest.approx(2.0 * level_oracle(92, 1, 0.5), rel=1e-14)
    assert tr.delta_eps == pytest.approx(757.44, abs=0.05)


def test_transition_table_sorted_and_stable():
    rows = hyd.transition_table(PB, pairs=(("K", "K"), ("K", "L1"), ("K", "L2"), ("L1", "L1"), ("L2", "L2")))
    assert len(rows) == 5
    values = [r.delta_eps for r in rows]
    assert values == sorted(values)
    again = hyd.transition_table(PB, pairs=(("L2", "L2"), ("K", "K"), ("L1", "L1"), ("K", "L2"), ("K", "L1")))
    assert [r.name for r in again] == [r.name for r in rows]


def test_transition_table_default_includes_m_and_z():
    names = {(r.upper.label, r.lower.label) for r in hyd.transition_table(hyd.get_ion("Th"))}
    assert ("M", "M") in names
    assert ("Z", "Z") in names


def test_constants_override_moves_levels():
    loose = Constants(electron_rest_energy=511.0, fine_structure=1.0 / 150.0)
    e = hyd.level_energy(PB, hyd.Shell.from_label("K"), constants=loose)
    assert e > hyd.level_energy(PB, hyd.Shell.from_label("K"))  # weaker coupling binds less


def test_unknown_ion():
    with pytest.raises(ValueError, match="Xx"):
        hyd.get_ion("Xx")
