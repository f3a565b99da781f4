"""The benchmark's 18 sha256 values, pinned: ``traces.csv``, the
acquisitions and the small config's ``traces.csv`` of each workload in
``bench/workloads.py`` at seeds 0 and 1, each run once through
``run_experiment`` at parallelism 1.

This table is the one home of the hashes.  A change that may move a hash
edits its line here, in plain view, and says why.  The values belong to
the stack that recorded them (STACK): another Python, numpy or BLAS may
round differently, and then this test fails on purpose and names it.
"""

import os
import warnings
from dataclasses import replace

import pytest

from wigs import run_experiment

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
STACK = "Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 (scipy-openblas64), x86-64"

# (workload, seed): (traces.csv, acquisitions, small-config traces.csv)
PINNED = {
    ("battery", 0): ("d267706f9f652684f8e352a9fc410d9eeac16a190af42b9e063c31e0d9f58df8",
                     "b6ac1ea9bb09819b232ee0770a59e69af6417149e07aa05a9a10499ce1e0b445",
                     "d49b704fc73ddba128abb55805c03d497d6305d27e0fc4a173416c9efac34226"),
    ("battery", 1): ("40e3d190464f09db1230101fef5ac554da5e8e91cf52012ee4edba4a684dc0a1",
                     "84bb4ed12a1d3493f0e3433f51b7466b717d528469ddc03135abc1d85a4ebcf0",
                     "0b9477918ba3b6e737d5f993ede45604f276ce0ef8e492cff68d7b68986ff729"),
    ("geometry_p20", 0): ("e8092b2ca4343fe530c576e6e76f0d51308a0e44ce6b877f7a2c3a9e22fa7994",
                          "53729f86094678ed051aaeb3876d384d99703022f312ac4ed93ddbe7083e430c",
                          "fc7b4ae7db3327a05c42b9e176a96d8fef2c885aaaab27a23b4217f90e23f888"),
    ("geometry_p20", 1): ("7a255c0eaa36df77d53ebbb2d4f27a1f54eff0fc60659732f5f80b3fbccdb680",
                          "8436bd9d4b6cb9d4fb333aae8de6c7a29275bf8cc18fe20a0215ead2886d7dfd",
                          "71bc5b84c09cd9b7f7dcc30c516a899872bcee0e42c31fda853471beeb87886e"),
    ("seeds_report", 0): ("2ddff365b1b95e9720bc23a4969662fe6ea2477354bab6b77d8df99501d449cc",
                          "13768eb816c83a01ee279c2f7821661e5fb661af662323aab5976e9af1803663",
                          "d6ec64b752950c550feae34a52bbee51e463a2839ae0c471f0ed52995219e412"),
    ("seeds_report", 1): ("8623b38d1b6c6b2f0228df02ab22c1997c13b37896f93b241882a9d30517ff17",
                          "3eaa609f6f45db0b77bdf0d6c7212da1438d4fa013eada14a23502711d7594a7",
                          "7050d03290e88d1dac4a37237a7db6504650c0995be956b2c1698fff4b42535b"),
}
COLUMNS = ("traces.csv", "acquisitions", "small-config traces.csv")


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, which imports ``checks`` from its own directory."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(BENCH)
        import workloads as module
        yield module


def hashes(workloads, name: str, seed: int, work_dir) -> tuple[str, str, str]:
    spec = workloads.prepare(name, seed, str(work_dir))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny labeled sets reduce the CV fold count
        full = run_experiment(replace(spec.config, out_dir=str(work_dir / "full")))
        small = run_experiment(replace(spec.small, out_dir=str(work_dir / "small")))
    assert not full.errors and not small.errors
    return (workloads.sha256_file(os.path.join(full.record_dir, "traces.csv")),
            workloads.acquisitions_sha256(full.traces),
            workloads.sha256_file(os.path.join(small.record_dir, "traces.csv")))


def test_the_eighteen_hashes_hold(workloads, tmp_path):
    differ = []
    for (name, seed), pinned in PINNED.items():
        got = hashes(workloads, name, seed, tmp_path / f"{name}_{seed}")
        differ += [f"{name} seed {seed} {column}: pinned {want[:8]}, got {value[:8]}"
                   for column, want, value in zip(COLUMNS, pinned, got) if value != want]
    assert not differ, (f"{len(differ)} of 18 hashes differ from the table recorded on {STACK}:\n"
                        + "\n".join(differ))
