"""Record the signature digest of every stream of every benchmark workload:

    python3 perfbench/record_digests.py [SEEDS]

writes ``perfbench/digests.json`` for the workloads named in
``BENCHMARK.json`` and seeds 0 to SEEDS-1 (default 12), with the platform it
was made on.  Runs then fail any pass whose digest differs.
Re-record only in a change that declares a semantic change of the learner;
a change meant to keep outputs bit-identical must leave the file alone.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import prepare  # noqa: E402

prepare()

import bench  # noqa: E402
import workloads  # noqa: E402
from parsnet.stream import prequential_run  # noqa: E402


def main(seeds: int) -> None:
    digests = {}
    for workload in bench.benchmark_workloads():
        digests[workload] = {}
        for seed in range(seeds):
            digests[workload][str(seed)] = [
                bench.digest(prequential_run(stream.config, stream.scenario))
                for stream in workloads.build_streams(workload, seed)]
            print(workload, seed, flush=True)
    record = {"platform": bench.platform_key(),
              "stream_length": workloads.STREAM_LENGTH,
              "batch_size": workloads.BATCH_SIZE,
              "digests": digests}
    with open(bench.DIGEST_FILE, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
