import pytest

import workloads

CASES = [(w, c) for w, cases in workloads.WORKLOADS.items() for c in cases]
IDS = [f"{w}/{c.name}" for w, c in CASES]


def _inputs(workload, case, seed, size="full"):
    return repr(case.make_inputs(workloads.rng_for(workload, case.name, seed), size))


@pytest.mark.parametrize("workload,case", CASES, ids=IDS)
def test_same_seed_generates_identical_inputs(workload, case):
    assert _inputs(workload, case, 7) == _inputs(workload, case, 7)


@pytest.mark.parametrize(
    "workload,name", [("tensor_frontier", "phi_psi_commute_3_3"), ("diagram_algebra", "orbit_pairs_a3")]
)
def test_sampled_cases_depend_on_the_seed(workload, name):
    case = workloads.case(workload, name)
    assert _inputs(workload, case, 1) != _inputs(workload, case, 2)


def test_orbit_pair_sample_has_the_same_strata_for_every_seed():
    case = workloads.case("diagram_algebra", "orbit_pairs_a3")

    def strata(seed):
        _, pairs = case.make_inputs(workloads.rng_for("diagram_algebra", case.name, seed), "full")
        return sorted((a.n_blocks(), b.n_blocks()) for a, b in pairs)

    assert strata(1) == strata(2)
    assert len(strata(1)) >= 590


@pytest.mark.parametrize("workload,case", CASES, ids=IDS)
def test_smoke_case_passes_its_check(workload, case):
    inputs = case.make_inputs(workloads.rng_for(workload, case.name, 3), "smoke")
    assert case.check(case.run(inputs), inputs) is None


def test_checks_reject_wrong_results():
    battery = workloads.case("battery", "verify")
    inputs = battery.make_inputs(None, "smoke")
    result = battery.run(inputs)
    assert battery.check(dict(result, status=1), inputs) == "exit status 1"
    altered = result["stdout"].replace("true", "false", 1)
    assert "line 1 differs" in battery.check(dict(result, stdout=altered), inputs)

    mult = workloads.case("characters", "tensor_multiplicities_5_2")
    assert mult.check({(1,): 1, (2,): 1}, (3, 2)) is not None  # (1, 1) is missing

    sw = workloads.case("tensor_frontier", "schur_weyl_2_4")
    report = sw.run((2, 2))
    assert sw.check(dict(report, image_dim=4), (2, 2)) is not None
