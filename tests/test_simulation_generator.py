"""Tests for the intra data center corpus generator."""

import pytest

from repro.incidents.query import SEVQuery
from repro.remediation.engine import RemediationEngine
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.topology.devices import DeviceType
from repro.topology.naming import parse_device_name


class TestCalibratedRun:
    def test_exact_counts(self, paper_store):
        scenario = paper_scenario()
        query = SEVQuery(paper_store)
        nested = query.count_by_year_and_type()
        for year, per_type in scenario.incident_counts.items():
            for device_type, expected in per_type.items():
                if expected:
                    assert nested[year][device_type] == expected

    def test_all_device_names_parse(self, paper_store):
        for report in paper_store.all_reports():
            parsed = parse_device_name(report.device_name)
            assert parsed.device_type is report.device_type

    def test_timestamps_inside_year(self, paper_store):
        for report in paper_store.all_reports():
            assert report.opened_year in range(2011, 2018)

    def test_durations_positive_and_capped(self, paper_store):
        for report in paper_store.all_reports():
            assert 0 < report.duration_h <= 8760.0

    def test_every_report_has_root_cause(self, paper_store):
        # The workflow's mandatory-field rule holds for the corpus.
        for report in paper_store.all_reports():
            assert report.root_causes

    def test_deterministic_given_seed(self):
        small_a = IntraSimulator(paper_scenario(seed=9, scale=0.05)).run()
        small_b = IntraSimulator(paper_scenario(seed=9, scale=0.05)).run()
        a = [(r.sev_id, r.opened_at_h) for r in small_a.all_reports()]
        b = [(r.sev_id, r.opened_at_h) for r in small_b.all_reports()]
        assert a == b

    def test_different_seed_different_corpus(self):
        a = IntraSimulator(paper_scenario(seed=1, scale=0.05)).run()
        b = IntraSimulator(paper_scenario(seed=2, scale=0.05)).run()
        ta = [r.opened_at_h for r in a.all_reports()]
        tb = [r.opened_at_h for r in b.all_reports()]
        assert ta != tb


class TestEngineCoupledRun:
    def test_enabled_engine_approximates_calibrated_counts(self):
        scenario = paper_scenario(seed=5)
        engine = RemediationEngine(
            success_ratio=scenario.repair_success, seed=5
        )
        store = IntraSimulator(scenario).run_with_engine(engine)
        query = SEVQuery(store)
        target = scenario.incident_counts[2017][DeviceType.RSW]
        measured = query.count_by_year_and_type()[2017][DeviceType.RSW]
        # Binomial filtering noise around the calibrated count.
        assert measured == pytest.approx(target, rel=0.25)

    def test_disabled_engine_floods_incidents(self):
        scenario = paper_scenario(seed=5, scale=0.2)
        enabled = RemediationEngine(
            success_ratio=scenario.repair_success, seed=5
        )
        disabled = RemediationEngine(enabled=False, seed=5)
        with_repair = IntraSimulator(scenario).run_with_engine(enabled)
        without_repair = IntraSimulator(scenario).run_with_engine(disabled)
        q_on = SEVQuery(with_repair).count_by_type(2017)
        q_off = SEVQuery(without_repair).count_by_type(2017)
        # Without automated repair, every raw RSW issue escalates:
        # roughly 1/(1-0.997) = 333x more incidents.
        assert q_off[DeviceType.RSW] > 50 * max(q_on.get(DeviceType.RSW, 1), 1)

    def test_pre_automation_years_emit_exact_counts(self):
        # Automated repair begins in 2013 (section 4.1.1): before
        # that, even covered types bypass the engine and the 2011/2012
        # counts stay exact.
        scenario = paper_scenario(seed=5)
        engine = RemediationEngine(
            success_ratio=scenario.repair_success, seed=5
        )
        store = IntraSimulator(scenario).run_with_engine(engine)
        counts = SEVQuery(store).count_by_year_and_type()
        for year in (2011, 2012):
            assert counts[year][DeviceType.RSW] == (
                scenario.incident_counts[year][DeviceType.RSW]
            )

    def test_uncovered_types_unaffected_by_engine(self):
        scenario = paper_scenario(seed=5, scale=0.2)
        engine = RemediationEngine(
            success_ratio=scenario.repair_success, seed=5
        )
        store = IntraSimulator(scenario).run_with_engine(engine)
        counts = SEVQuery(store).count_by_year_and_type()
        assert counts[2017][DeviceType.CSW] == (
            scenario.incident_counts[2017][DeviceType.CSW]
        )


class TestRemediationMonth:
    def test_table1_shape(self):
        sim = IntraSimulator(paper_scenario(seed=3))
        result = sim.simulate_remediation_month()
        assert result.repair_ratio(DeviceType.RSW) == pytest.approx(0.997, abs=0.01)
        assert result.repair_ratio(DeviceType.FSW) == pytest.approx(0.995, abs=0.01)
        assert result.repair_ratio(DeviceType.CORE) == pytest.approx(0.75, abs=0.05)

    def test_escalation_ratios(self):
        # Section 4.1.2: 1 in 397 RSW issues, 1 in 4 Core issues.
        sim = IntraSimulator(paper_scenario(seed=3))
        result = sim.simulate_remediation_month()
        assert result.escalation_one_in(DeviceType.CORE) == pytest.approx(4.0, rel=0.25)
        assert result.escalation_one_in(DeviceType.RSW) > 150

    def test_custom_volumes(self):
        sim = IntraSimulator(paper_scenario(seed=3))
        result = sim.simulate_remediation_month(
            issues_per_type={DeviceType.CORE: 100}
        )
        assert result.engine.stats(DeviceType.CORE).issues == 100
        assert result.engine.stats(DeviceType.RSW).issues == 0


class TestDeviceNames:
    def test_table_draws_match_randrange_formatting(self):
        # The name tables must consume the RNG exactly as formatting
        # randrange draws does: same names, same RNG state after.
        import random

        from repro.simulation.generator import _random_device_name

        def by_randrange(rng, device_type, year, fabric_year):
            if device_type.is_fabric or (
                device_type is DeviceType.RSW
                and year >= fabric_year
                and rng.random() < 0.5
            ):
                unit = f"pod{rng.randrange(16)}"
            elif device_type is DeviceType.CORE:
                unit = "plane"
            else:
                unit = f"cluster{rng.randrange(16)}"
            dc = f"dc{rng.randrange(1, 13)}"
            region = f"region{rng.choice('abcdefgh')}"
            index = rng.randrange(1000)
            return f"{device_type.value}.{index:03d}.{unit}.{dc}.{region}"

        tables, reference = random.Random(11), random.Random(11)
        for i in range(3000):
            device_type = list(DeviceType)[i % len(DeviceType)]
            year = 2011 + i % 7
            assert (_random_device_name(tables, device_type, year, 2015)
                    == by_randrange(reference, device_type, year, 2015))
        assert tables.getstate() == reference.getstate()
