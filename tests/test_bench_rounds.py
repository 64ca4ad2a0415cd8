"""One round of each benchmark workload (perfbench/workloads.py) through the
package, judged by the benchmark's own checks (perfbench/checks.py); an API
change that breaks a workload fails here before a benchmark run."""

import pytest

import prophet_sharp
import prophet_sharp.cli  # noqa: F401  (the table1 round calls cli.main)
from helpers import load_perfbench

workloads = load_perfbench("workloads")
checks = load_perfbench("checks")
SEED = 1


@pytest.mark.parametrize("workload", ["table1", "constrained", "validate"])
def test_round_passes_its_checks(workload, tmp_path):
    inputs = workloads.build_inputs(prophet_sharp, workload, SEED, str(tmp_path))
    outputs, rnd = workloads.run_round(prophet_sharp, workload, inputs)
    assert rnd.attempted > 0 and rnd.failed == 0
    if workload == "table1":
        failures = checks.check_table1(tmp_path, outputs)
    elif workload == "constrained":
        failures = checks.check_constrained(outputs)
    else:
        failures = checks.check_validate(SEED, outputs)
    assert failures == []
