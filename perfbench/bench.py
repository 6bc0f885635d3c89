"""Measurement and checking behind ``run.py``.

Load model: a closed loop.  One in-process caller on one thread replays each
stream through ``parsnet.stream.prequential_run`` as fast as the learner
takes it, so nothing queues and the sustainable rate is the throughput.

Every pass of a stream is checked: the single-pass counter identities must
hold and the signature digest must equal that of the stream's first pass in
the run, and the digest recorded in ``digests.json`` where one exists for
this machine's platform.  A pass that raises or fails a check counts all its
samples as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import numpy as np

import spans
import speed
import workloads
from parsnet import slash
from parsnet import stream as pstream

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
DIGEST_FILE = os.path.join(HERE, "digests.json")

SETUP_STARTS = 9
SETUP_TIMEOUT_S = 60
TIMED_STREAMS = 6
ROUNDS = 3              # timed rounds; each sample's time is its best of these
TRACED_STREAMS = 3
TRACED_ROUNDS = 2


def digest(metrics) -> str:
    return hashlib.sha256(pickle.dumps(metrics.signature())).hexdigest()


def check(stream: workloads.Stream, metrics) -> list[str]:
    """The single-pass identities of one prequential run; returns the violations."""
    c = metrics.counters
    problems = []
    if not c["samples"] == c["gen_steps"] == stream.samples:
        problems.append(f"samples {c['samples']} / gen_steps {c['gen_steps']} "
                        f"!= stream length {stream.samples}")
    if c["skipped"]:
        problems.append(f"{c['skipped']} samples skipped")
    if not c["disc_label_steps"] == c["disc_aug_steps"] == stream.labelled:
        problems.append(f"disc_label_steps {c['disc_label_steps']} / disc_aug_steps "
                        f"{c['disc_aug_steps']} != labelled {stream.labelled}")
    if c["disc_pseudo_steps"] != metrics.pseudo_labels:
        problems.append(f"disc_pseudo_steps {c['disc_pseudo_steps']} "
                        f"!= pseudo_labels {metrics.pseudo_labels}")
    if len(metrics.batch_accuracy) != len(stream.scenario.batches):
        problems.append("not one accuracy per batch")
    return problems


def platform_key() -> str:
    """What bit-identical results are defined against: CPU, numpy and BLAS."""
    return f"{cpu_model()} | numpy {np.__version__} | {blas_version()}"


class Ledger:
    """Runs passes and keeps the count of samples attempted and failed."""

    def __init__(self, recorded: list[str] | None = None):
        self.recorded = recorded or []
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[int, str] = {}
        self.problems: list[str] = []

    def run(self, stream: workloads.Stream, label: str):
        """One prequential pass; returns ``(metrics, wall_seconds)`` or ``(None, None)``."""
        self.attempted += stream.samples
        try:
            start = perf_counter()
            metrics = pstream.prequential_run(stream.config, stream.scenario)
            wall = perf_counter() - start
        except Exception:
            traceback.print_exc()
            self._fail(stream, label, ["raised"])
            return None, None
        problems = check(stream, metrics)
        found = digest(metrics)
        if found != self.first_digest.setdefault(stream.index, found):
            problems.append("signature digest differs from the first pass")
        if stream.index < len(self.recorded) and found != self.recorded[stream.index]:
            problems.append("signature digest differs from digests.json")
        if problems:
            self._fail(stream, label, problems)
            return None, None
        return metrics, wall

    def _fail(self, stream, label, problems):
        self.failed += stream.samples
        self.problems.append(f"stream {stream.index} {label} pass: {'; '.join(problems)}")


def recorded_digests(workload: str, seed: int, length: int) -> tuple[list[str] | None, str]:
    """The recorded per-stream digests for this run, and a note on their use.

    Bit-identity is defined per platform and per stream shape, so a record
    made on another CPU, numpy or BLAS, or for other stream lengths, is not
    compared against.
    """
    try:
        with open(DIGEST_FILE) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        return None, "no digests.json"
    shape = {"stream_length": length, "batch_size": workloads.BATCH_SIZE}
    if any(record.get(key) != value for key, value in shape.items()):
        return None, "digests.json holds other stream lengths"
    if record.get("platform") != platform_key():
        return None, f"digests.json was recorded on another platform: {record.get('platform')}"
    digests = record["digests"].get(workload, {}).get(str(seed))
    if digests is None:
        return None, f"no recorded digest for seed {seed}"
    return digests, "checked against digests.json"


# -- set-up -------------------------------------------------------------------

def measure_setup(workload: str, seed: int, streams: int, length: int,
                  fingerprint: str, starts: int = SETUP_STARTS) -> list[float]:
    """Seconds from the start of a fresh interpreter until it has imported
    parsnet and built the run's streams, once per start, each scaled by the
    speed probes taken right before and after it."""
    command = [sys.executable, workloads.__file__, workload, str(seed), str(streams),
               str(length)]
    times = []
    before = speed.probe_ns()
    for _ in range(starts):
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            try:
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or line.strip() != fingerprint:
            raise RuntimeError(f"set-up probe exited {proc.returncode} with "
                               f"fingerprint {line.strip()!r}, expected {fingerprint}")
        after = speed.probe_ns()
        times.append(elapsed * 2 * speed.REFERENCE_NS / (before + after))
        before = after
    return times


# -- the end-to-end run ---------------------------------------------------------

def timed_pass(stream, ledger, label):
    """One pass with the per-sample timer and a speed probe at every batch.

    Returns ``(metrics, sample_ns, rest_ns, unscaled_sps)`` or ``None``:
    each sample's ``train_on_sample`` time and each batch's time outside it
    (batch prediction and the loop), both scaled by the probes around the
    batch.
    """
    sink, probes = [], []
    with spans.sample_timer(sink), spans.batch_probe(probes, speed.probe_ns):
        metrics, _ = ledger.run(stream, label)
    if metrics is None:
        return None
    # Batch i ran between probe i and probe i + 1.
    speeds = np.array([found for found, _ in probes] + [speed.probe_ns()])
    scale = 2 * speed.REFERENCE_NS / (speeds[:-1] + speeds[1:])
    sizes = [batch.truth.shape[0] for batch in stream.scenario.batches]
    sample_ns = np.asarray(sink, dtype=float)
    batch_ns = 1e9 * np.diff(metrics.cumulative_seconds, prepend=0.0) - [w for _, w in probes]
    rest_ns = batch_ns - np.add.reduceat(sample_ns, np.cumsum([0] + sizes[:-1]))
    unscaled_sps = stream.samples / (batch_ns.sum() / 1e9)
    return metrics, sample_ns * np.repeat(scale, sizes), rest_ns * scale, unscaled_sps


def end_to_end(streams, seconds, ledger):
    """One checked pass over the streams past ``TIMED_STREAMS`` for their
    classification rate, then ``ROUNDS`` timed rounds over the first
    ``TIMED_STREAMS``, then further checked rounds while one fits in
    ``seconds``.

    Other tenants of a shared machine slow the program in spells of seconds
    and in bursts of milliseconds.  Spells are scaled out by the speed
    probes (see ``timed_pass``).  Bursts are filtered: a stream's passes do
    bit-identical work (the digest check makes sure), so each sample's
    scaled time is taken as its best over the timed rounds, and so is each
    batch's scaled time outside ``train_on_sample``.  The number of timed
    rounds is fixed, because the best of more rounds reads lower: a faster
    program must not get more of them.  Throughput is samples over the sum
    of these best times; the latency percentiles pool every sample's best
    ``train_on_sample`` time.
    """
    deadline = perf_counter() + seconds
    rates = {}
    for stream in streams[TIMED_STREAMS:]:
        metrics, _ = ledger.run(stream, "untimed")
        if metrics is not None:
            rates[stream.index] = metrics.classification_rate
    timed = streams[:TIMED_STREAMS]
    best_ns, best_rest, unscaled = {}, {}, []
    for round_ in range(1, ROUNDS + 1):
        for stream in timed:
            found = timed_pass(stream, ledger, f"round {round_}")
            if found is None:
                continue
            metrics, sample_ns, rest_ns, sps = found
            unscaled.append(sps)
            if stream.index in best_ns:
                sample_ns = np.minimum(sample_ns, best_ns[stream.index])
                rest_ns = np.minimum(rest_ns, best_rest[stream.index])
            best_ns[stream.index], best_rest[stream.index] = sample_ns, rest_ns
            rates.setdefault(stream.index, metrics.classification_rate)
    checked = check_until(deadline, timed, ledger)
    if not best_ns or len(rates) < len(streams):
        return None, []
    pooled = np.concatenate(list(best_ns.values()))
    busy_ns = pooled.sum() + sum(rest.sum() for rest in best_rest.values())
    p50, p99 = np.percentile(pooled, (50, 99)) / 1e3
    values = {
        "throughput_sps": pooled.size / (busy_ns / 1e9),
        "sample_us_p50": p50,
        "sample_us_p99": p99,
        "cr_pct": 100.0 * statistics.fmean(rates.values()),
    }
    notes = [f"{ROUNDS} timed rounds over {len(timed)} streams of {timed[0].samples} samples, "
             f"then {checked} checked passes; cr_pct over {len(streams)} streams",
             f"latency percentiles pool {pooled.size} samples' best times, "
             f"{pooled.size // 100} of them above p99",
             f"unscaled single-pass throughput: median {statistics.median(unscaled):.1f}, "
             f"range {min(unscaled):.1f}-{max(unscaled):.1f} samples/s",
             f"per-sample timer: {spans.timer_cost_ns():.0f} ns per call on a no-op"]
    return values, notes


def check_until(deadline, streams, ledger) -> int:
    """Checked, untimed passes over ``streams`` while another fits before
    ``deadline``; returns how many ran."""
    passes, last = 0, 0.0
    while True:
        stream = streams[passes % len(streams)]
        start = perf_counter()
        if start + last > deadline:
            return passes
        ledger.run(stream, "checked")
        last = perf_counter() - start
        passes += 1


# -- the traced and counted runs -----------------------------------------------

def traced(streams, seconds, ledger):
    """``TRACED_ROUNDS`` rounds of an untraced, a timed and a traced pass over
    each of the first ``TRACED_STREAMS`` streams, then one counted pass over
    each, then further checked passes while one fits in ``seconds``.

    As in the end-to-end run, each pass's times are scaled by the speed
    probes around it, and each stream's span self times and pass times are
    their best over the rounds; calls, counts and structure do not vary.
    """
    deadline = perf_counter() + seconds
    chosen = streams[:TRACED_STREAMS]
    samples = sum(stream.samples for stream in chosen)
    kinds = ("untraced", "timed", "traced")
    best_wall = {}     # (kind, stream index) -> best scaled wall seconds
    best_self = {}     # (span, stream index) -> best scaled self nanoseconds
    calls, gates, plain = {}, {}, {}
    probe = speed.probe_ns()
    for _ in range(TRACED_ROUNDS):
        for stream in chosen:
            tracer = spans.Tracer()
            for kind, context in zip(kinds, (contextlib.nullcontext(),
                                             spans.sample_timer([]), tracer.installed())):
                with context:
                    metrics, wall = ledger.run(stream, kind)
                before, probe = probe, speed.probe_ns()
                if metrics is None:
                    return None, []
                scale = 2 * speed.REFERENCE_NS / (before + probe)
                key = (kind, stream.index)
                best_wall[key] = min(wall * scale, best_wall.get(key, float("inf")))
                plain.setdefault(stream.index, metrics)
            for name, (count, self_ns) in tracer.totals.items():
                key = (name, stream.index)
                best_self[key] = min(self_ns * scale, best_self.get(key, float("inf")))
                calls[key] = count
            gates[stream.index] = tracer.gate
    counter = spans.CallCounter(spans.Tracer())
    with counter.installed():
        for stream in chosen:
            if ledger.run(stream, "counted")[0] is None:
                return None, []
    checked = check_until(deadline, chosen, ledger)

    values = {}
    for _, _, name in spans.TARGETS:
        total = sum(calls[name, stream.index] for stream in chosen)
        values[f"{name}.calls_per_sample"] = total / samples
        values[f"{name}.calls"] = total
        values[f"{name}.ns_per_sample"] = sum(
            best_self[name, stream.index] for stream in chosen) / samples
    values["stream.train_on_sample.self_ns_per_sample"] = values.pop(
        "stream.train_on_sample.ns_per_sample")
    for layer, counts in counter.counts.items():
        values[f"{layer}.py_calls_per_sample"] = counts["call"] / samples
        values[f"{layer}.c_calls_per_sample"] = counts["c_call"] / samples

    runs = list(plain.values())
    events = [kind for run in runs for _, kind in run.events]
    inserts, prunes = events.count("mixture_insert"), events.count("mixture_prune")
    values.update({
        "network.hidden_mean": statistics.fmean(h for run in runs for h in run.hidden_nodes),
        "network.hidden_final": statistics.fmean(run.hidden_nodes[-1] for run in runs),
        "agmm.size_mean": statistics.fmean(k for run in runs for k in run.mixture_sizes),
        "agmm.inserts_per_ksample": 1e3 * inserts / samples,
        "agmm.prunes_per_ksample": 1e3 * prunes / samples,
        "agmm.churn_ratio": prunes / inserts if inserts else 0.0,
        "plasticity.grow_events": events.count("node_grow"),
        "plasticity.prune_events": events.count("node_prune"),
    })
    gate = {reason: sum(g[reason] for g in gates.values()) for reason in spans.GATE_REASONS}
    attempts = sum(gate.values())
    for reason, key in ((slash.ACCEPTED, "gate_accept_ratio"),
                        (slash.LOW_CONFIDENCE, "gate_low_confidence_frac"),
                        (slash.DISAGREEMENT, "gate_disagreement_frac"),
                        (slash.UNAVAILABLE, "gate_unavailable_frac")):
        values[f"slash.{key}"] = gate[reason] / attempts if attempts else 0.0

    sps = {kind: samples / sum(best_wall[kind, stream.index] for stream in chosen)
           for kind in kinds}
    values.update({
        "overhead.untraced_sps": sps["untraced"],
        "overhead.traced_sps_ratio": sps["traced"] / sps["untraced"],
        "overhead.timed_sps_ratio": sps["timed"] / sps["untraced"],
        "overhead.timer_ns_per_call": spans.timer_cost_ns(),
    })
    notes = [f"{TRACED_ROUNDS} rounds of an untraced, a timed and a traced pass, then one "
             f"counted pass and {checked} checked passes, over streams 0-{len(chosen) - 1} ({samples} samples); ns figures are scaled "
             f"self time, best over the passes; event and call counts are totals",
             f"best scaled rates: traced {sps['traced']:.1f} and timed {sps['timed']:.1f} "
             f"against untraced {sps['untraced']:.1f} samples/s",
             f"pseudo-label gate: {attempts} attempts, {gate}"]
    return values, notes


# -- the machine record ----------------------------------------------------------

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def blas_version() -> str:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        return "unknown"


def loadavg() -> str | None:
    text = _read("/proc/loadavg")
    return " ".join(text.split()[:3]) if text else None


def machine_record() -> dict:
    threads = next((line.split()[1] for line in (_read("/proc/self/status") or "").splitlines()
                    if line.startswith("Threads:")), None)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "thread_settings": {var: os.environ.get(var) for var in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "process_threads": threads,
    }


# -- one run ---------------------------------------------------------------------

def _benchmark() -> dict:
    with open(BENCHMARK_FILE) as fh:
        return json.load(fh)


def metric_specs(trace: bool) -> list[dict]:
    return _benchmark()["per_layer" if trace else "end_to_end"]


def benchmark_workloads() -> list[str]:
    return [workload["name"] for workload in _benchmark()["workloads"]]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 streams: int = workloads.STREAMS,
                 length: int = workloads.STREAM_LENGTH,
                 setup_starts: int = SETUP_STARTS) -> tuple[dict, list[str]]:
    """One run; returns the result object and the lines for a reader."""
    load_start = loadavg()
    built = workloads.build_streams(workload, seed, streams, length)
    recorded, digest_note = recorded_digests(workload, seed, length)
    ledger = Ledger(recorded)
    lines = [f"workload {workload}, seed {seed}, trace {int(trace)}, {seconds:g} s; "
             f"signature digests: {digest_note}"]
    if trace:
        values, notes = traced(built, seconds, ledger)
    else:
        setup = measure_setup(workload, seed, streams, length,
                              workloads.fingerprint(built), setup_starts)
        values, notes = end_to_end(built, seconds, ledger)
        if values is not None:
            values["setup_s"] = statistics.median(setup)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes.append(f"setup_s is the median of {len(setup)} scaled fresh-process starts: "
                     + ", ".join(f"{t:.3f}" for t in setup))
    lines += notes + ledger.problems
    metrics = {}
    if values is not None:
        for spec in metric_specs(trace):
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
            lines.append(f"{spec['name']} = {values[spec['name']]:.6g} {spec['unit']}")
    lines.append(f"failed_frac = {ledger.failed / ledger.attempted:.6g} ratio "
                 f"({ledger.failed} of {ledger.attempted} samples)")
    record = machine_record()
    record["loadavg_start"], record["loadavg_end"] = load_start, loadavg()
    lines.append("machine " + json.dumps(record, sort_keys=True))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description="Prequential benchmark of parsnet.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0
