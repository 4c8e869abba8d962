"""Fleet-scale projection model."""

import pytest

from repro.projection import (
    WORLD_TRANSFER_TWH_PER_YEAR,
    FleetModel,
    JobClass,
    PolicyReport,
    global_projection_twh,
)
from repro.service.tariff import flat_tariff


@pytest.fixture
def fleet(small_testbed):
    jobs = [
        JobClass("nightly", small_testbed.dataset_factory, jobs_per_day=2.0),
        JobClass("hourly", small_testbed.dataset_factory, jobs_per_day=24.0,
                 sla_level=0.7),
    ]
    return FleetModel(small_testbed, jobs, max_channels=4)


class TestTariffModel:
    """The projection's tariff model is a ``TariffTrace``: flat by
    default, one price and intensity for every joule."""

    def test_dollars(self, small_testbed):
        jobs = [JobClass("j", small_testbed.dataset_factory, jobs_per_day=2.0)]
        report = FleetModel(
            small_testbed, jobs, tariff=flat_tariff(price=0.10),
            max_channels=4,
        ).report("promc")
        assert report.annual_cost_dollars == pytest.approx(
            report.annual_energy_kwh * 0.10
        )

    def test_co2(self, fleet):
        assert fleet.tariff == flat_tariff()
        report = fleet.report("promc")
        assert report.annual_kg_co2 == pytest.approx(
            report.annual_energy_kwh * 0.37
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            flat_tariff(price=-1)


class TestJobClass:
    def test_validation(self):
        with pytest.raises(ValueError):
            JobClass("x", lambda: None, jobs_per_day=-1)
        with pytest.raises(ValueError):
            JobClass("x", lambda: None, jobs_per_day=1, sla_level=0.0)


class TestFleetModel:
    def test_needs_jobs(self, small_testbed):
        with pytest.raises(ValueError):
            FleetModel(small_testbed, [])

    def test_report_annualizes(self, fleet):
        report = fleet.report("promc")
        assert report.annual_jobs == pytest.approx((2.0 + 24.0) * 365)
        assert report.annual_energy_kwh > 0
        assert report.annual_cost_dollars > 0
        assert report.annual_transfer_hours > 0

    def test_mine_policy_never_meaningfully_worse(self, fleet):
        promc = fleet.report("promc")
        mine = fleet.report("mine")
        assert mine.savings_vs(promc) > -0.05

    def test_htee_policy_produces_sane_report(self, fleet):
        # on a tiny job HTEE's probe phase dominates, so it may cost
        # more than ProMC here — the XSEDE-scale comparison lives in
        # examples/provider_fleet.py and the integration suite
        report = fleet.report("htee")
        assert report.annual_energy_kwh > 0
        assert report.annual_transfer_hours > 0

    def test_slaee_uses_job_sla_levels(self, fleet):
        report = fleet.report("slaee")
        assert report.annual_energy_kwh > 0

    def test_unknown_policy(self, fleet):
        with pytest.raises(KeyError):
            fleet.report("carrier-pigeon")

    def test_runs_are_cached(self, fleet):
        fleet.report("mine")
        cached = dict(fleet._run_cache)
        fleet.report("mine")
        assert fleet._run_cache == cached

    def test_render_comparison(self, fleet):
        text = fleet.render_comparison(["promc", "mine"])
        assert "promc" in text and "mine" in text
        assert "vs ProMC" in text

    def test_savings_vs_requires_positive_baseline(self):
        a = PolicyReport("a", 1, 0.0, 1, 1, 1)
        b = PolicyReport("b", 1, 10.0, 1, 1, 1)
        with pytest.raises(ValueError):
            b.savings_vs(a)
        assert b.savings_vs(b) == 0.0


class TestGlobalProjection:
    def test_paper_constants(self):
        assert WORLD_TRANSFER_TWH_PER_YEAR == 450.0

    def test_30pct_of_end_system_quarter(self):
        # the paper's headline: 30% savings on the end-system quarter
        saved = global_projection_twh(0.30)
        assert saved == pytest.approx(450.0 * 0.25 * 0.30)

    def test_validation(self):
        with pytest.raises(ValueError):
            global_projection_twh(1.5)
        with pytest.raises(ValueError):
            global_projection_twh(0.5, end_system_share=0.0)
