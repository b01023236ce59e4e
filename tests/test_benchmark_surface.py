"""The benchmark in perfbench/ calls photofpt through its public functions
and gates every result. Its first calls, spot operations, one pass of the
analytic-curves workload and a few rate queries run here through those same
gates, so that a change to a signature or an output the benchmark reads
fails a test instead of the next benchmark run."""
import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_spec)
# dataclasses resolve the module's annotations through sys.modules
sys.modules[_spec.name] = workloads
_spec.loader.exec_module(workloads)


def _failures(ops) -> list[str]:
    """Each op's gate message; None means the output passed its gate."""
    done, failures = {}, []
    for op in ops:
        out = op.run()
        fail = op.gate(out, done)
        if fail is not None:
            failures.append(f"{op.name}: {fail}")
        done[op.name] = out
    return failures


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_calls_run(name):
    for call in workloads.WORKLOADS[name].first_calls:
        call()


def test_spot_ops_pass_their_gates():
    assert _failures(workloads.spot_ops()) == []


def test_analytic_curves_pass_and_rate_queries_pass_their_gates():
    ops = workloads.WORKLOADS["analytic-curves"].build(workloads.pass_rng(0, 0, 0))
    ops += workloads.rate_stage(workloads.pass_rng(0, 1, 0), 8)
    assert _failures(ops) == []
