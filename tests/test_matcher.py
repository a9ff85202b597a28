import dataclasses
import json
import math
from importlib import resources

import pytest

from diracpair import matcher
from diracpair.hydrogenic import get_ion
from diracpair.kinematics import boost_from_beam_energy, lab_pair_energy


@pytest.fixture(scope="module")
def table1():
    return matcher.bundled_catalog("table1")


@pytest.fixture(scope="module")
def table2():
    return matcher.bundled_catalog("table2")


@pytest.fixture(scope="module")
def reports():
    return matcher.reproduce_tables()


def test_bundled_catalog_row_counts(table1, table2):
    # one entry per published identification; combined-value rows are split
    assert len(table1) == 23
    assert len(table2) == 30


def test_catalog_fields_validated(table1):
    for rec in table1:
        assert rec.observed > 0
        assert rec.observable == "pair_sum_kinetic"
        assert rec.branch in ("+", "-")
        assert rec.beam_energy_x == 6.0


def test_load_catalog_rejects_bad_rows(tmp_path):
    good = {
        "system": "U+Pb", "spectrometer": "sum", "observable": "pair_sum_kinetic",
        "observed_keV": 576, "x_mev_per_u": 6, "ion": "Pb", "upper": "K", "lower": "K",
        "branch": "+", "published_theory_at_45_keV": 571.0, "published_theta_deg": 46.4,
    }
    path = tmp_path / "cat.json"

    bad = dict(good, observed_keV=-1)
    path.write_text(json.dumps([bad]))
    with pytest.raises(ValueError, match="observed_keV"):
        matcher.load_catalog(path)

    bad = dict(good, system="U+Xx")
    path.write_text(json.dumps([bad]))
    with pytest.raises(ValueError, match="Xx"):
        matcher.load_catalog(path)

    bad = dict(good, observable="energy")
    path.write_text(json.dumps([bad]))
    with pytest.raises(ValueError, match="observable"):
        matcher.load_catalog(path)

    path.write_text(json.dumps([good]))
    assert len(matcher.load_catalog(path)) == 1


def test_candidates_cover_both_ions_and_branches():
    cands = matcher.candidate_transitions(get_ion("U"), get_ion("Pb"))
    assert len(cands) == 2 * 7 * 2
    ions = {c.transition.ion.symbol for c in cands}
    assert ions == {"U", "Pb"}
    pb_kk_plus = [c for c in cands if c.transition.ion.symbol == "Pb" and c.transition.upper.label == "K" and c.transition.lower.label == "K" and c.branch == "+"]
    assert len(pb_kk_plus) == 1
    assert pb_kk_plus[0].theory_at_45 == pytest.approx(571.0, rel=0.005)


def test_symmetric_system_deduplicates():
    cands = matcher.candidate_transitions(get_ion("U"), get_ion("U"))
    assert len(cands) == 7 * 2
    keys = [(c.transition.name, c.branch) for c in cands]
    assert len(keys) == len(set(keys))


def test_match_peak_u_pb_576(table1):
    rec = next(r for r in table1 if r.observed == 576 and r.ion.symbol == "Pb")
    assert len(matcher.match_peak(rec)) == 6  # default depth
    # the published identifications for this peak sit within the top 8
    results = matcher.match_peak(rec, top_k=8)
    by_key = {(m.transition.name, m.branch): m for m in results}
    pb = by_key[("Pb:K->K'", "+")]
    assert math.degrees(pb.solved_theta) == pytest.approx(46.4, abs=0.5)
    u = by_key[("U:K->K'", "+")]
    assert math.degrees(u.solved_theta) == pytest.approx(56.0, abs=0.5)
    # ranked by |theory - observed|
    residuals = [abs(m.residual_at_45) for m in results]
    assert residuals == sorted(residuals)


@pytest.mark.parametrize("top_k", [0, -1, -100])
def test_match_peak_rejects_top_k_below_one(table1, top_k):
    with pytest.raises(ValueError, match="top_k"):
        matcher.match_peak(table1[0], top_k=top_k)


def test_match_peak_positron_row(table2):
    rec = next(r for r in table2 if r.system_name == "U+U" and r.spectrometer == "orange")
    top = matcher.match_peak(rec)[0]
    assert top.transition.name == "U:K->K'"
    assert top.branch == "-"
    assert top.theory_at_45 / 2.0 == pytest.approx(281.7, rel=0.005)
    assert math.degrees(top.solved_theta) == pytest.approx(46.1, abs=0.5)


def test_match_peak_exact_value_recovers_45_degrees(table1):
    rec0 = table1[0]
    cands = matcher.candidate_transitions(*rec0.system)
    target = cands[0].theory_at_45
    rec = matcher.ExperimentRecord(
        system=rec0.system, spectrometer="sum", observable="pair_sum_kinetic",
        observed=target, beam_energy_x=6.0, flagged_marginal=False,
    )
    top = matcher.match_peak(rec, top_k=1)[0]
    assert top.residual_at_45 == 0.0
    assert math.degrees(top.solved_theta) == pytest.approx(45.0, abs=1e-3)


def test_solved_theta_reproduces_observed(table2):
    # invariant: a solved angle feeds back through the kinematics to the peak
    rec = next(r for r in table2 if r.system_name == "U+Au" and r.branch == "+" and r.upper.label == "K" and r.lower.label == "K")
    for m in matcher.match_peak(rec):
        if m.solved_theta is None:
            continue
        boost = boost_from_beam_energy(rec.beam_energy_x)
        t = lab_pair_energy(boost, m.transition.delta_eps, m.solved_theta, m.branch).t_lab
        assert abs(t - rec.comparison_value) < 0.1


def test_match_peak_ranks_at_the_record_beam_energy(table1):
    # the theory values and angles belong to the record's own 8 MeV/u, not to the 6 MeV/u default
    rec = dataclasses.replace(next(r for r in table1 if r.observed == 576 and r.ion.symbol == "Pb"), beam_energy_x=8.0)
    boost = boost_from_beam_energy(8.0)
    results = matcher.match_peak(rec)
    assert (results[0].transition.name, results[0].branch) == ("Pb:K->K'", "-")
    for m in results:
        assert m.theory_at_45 == lab_pair_energy(boost, m.transition.delta_eps, math.radians(45.0), m.branch).t_lab
        if m.solved_theta is not None:
            t = lab_pair_energy(boost, m.transition.delta_eps, m.solved_theta, m.branch).t_lab
            assert abs(t - rec.comparison_value) < 0.1


def test_positron_rows_use_half_energy_rule(reports):
    for rep in reports:
        if rep.record.observable != "positron_energy":
            continue
        boost = boost_from_beam_energy(rep.record.beam_energy_x)
        # recompute the pair value and halve it: must equal the reported theory exactly
        from diracpair.hydrogenic import pair_transition_energy

        tr = pair_transition_energy(rep.record.ion, rep.record.upper, rep.record.lower)
        pair = lab_pair_energy(boost, tr.delta_eps, math.radians(45.0), rep.record.branch).t_lab
        assert rep.computed_theory_at_45 == pair / 2.0


def test_reproduce_tables_headline_rows_pass(reports):
    for rep in reports:
        if rep.theory_headline:
            assert rep.theory_ok, rep.record
        if rep.theta_headline:
            assert rep.theta_ok, rep.record


def test_flagged_rows_documented_and_still_inconsistent(reports):
    # every exclusion flag must carry a note in the bundled JSON and must
    # still be demonstrably necessary, otherwise the flag has gone stale
    entries = [
        entry
        for name in ("table1", "table2")
        for entry in json.loads(resources.files("diracpair.data").joinpath(f"{name}.json").read_text(encoding="utf-8"))
    ]
    assert len(entries) == len(reports)
    flagged = [(r, entry) for r, entry in zip(reports, entries) if r.record.flags]
    assert flagged
    for rep, entry in flagged:
        assert tuple(entry["flags"]) == rep.record.flags
        assert entry["note"]
        if "published_theta_inconsistent" in rep.record.flags:
            assert not rep.theta_ok
        if "published_theory_inconsistent" in rep.record.flags:
            assert not rep.theory_ok


def test_specific_published_rows(reports):
    def find(system, observed, ion, upper, lower, branch):
        for r in reports:
            rec = r.record
            if (rec.system_name == system and rec.observed == observed and rec.ion.symbol == ion
                    and rec.upper.label == upper and rec.lower.label == lower and rec.branch == branch):
                return r
        raise AssertionError("row not found")

    th_m = find("U+Th", 760, "Th", "M", "M", "-")
    assert th_m.computed_theory_at_45 == pytest.approx(763.3, rel=0.005)
    ta_z = find("U+Ta", 805, "Ta", "Z", "Z", "-")
    assert ta_z.computed_theta_deg == pytest.approx(50.0, abs=0.5)
    au = find("U+Au", 261, "U", "K", "K", "+")
    assert au.computed_theory_at_45 == pytest.approx(260.7, rel=0.005)
    assert au.computed_theta_deg == pytest.approx(45.5, abs=0.5)


def test_every_row_matches_some_candidate_with_real_angle(table1, table2):
    for rec in table1 + table2:
        results = matcher.match_peak(rec)
        assert any(m.solved_theta is not None and 0.0 < math.degrees(m.solved_theta) <= 90.0 for m in results)


def test_reproduce_tables_deterministic(reports):
    again = matcher.reproduce_tables()
    assert len(again) == len(reports)
    for a, b in zip(reports, again):
        assert a == b
