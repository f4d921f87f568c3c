#!/usr/bin/env python3
"""Benchmark regression gate for the core-vs-reference perf JSONs.

Parses the BENCH_*.json files written by route_perf / place_perf /
sched_perf (--json-out) and fails when:

  * any benchmark entry is missing the "identical" key or reports
    identical != true (the core diverged from its reference oracle), or
  * any benchmark's core-vs-reference speedup drops below --min-speedup
    (default 1.0: the core must never be slower than the reference), or
  * a file given via --geomean FILE=X has a geometric-mean speedup below
    X (e.g. --geomean BENCH_sched.json=1.5 enforces the scheduler core's
    acceptance threshold).

Gates the route–retime fixpoint report written by flow_perf (--json-out)
when given via --flow FILE: every config must report identical == true
(the incremental fixpoint is bit-identical to the from-scratch loop),
every config's end-to-end speedup must stay above --flow-min-speedup
(default 0.85 — a flow that converges in one round has no repeat work
to eliminate, so its theoretical best is parity; with pooled probe
buffers the footprint-recording overhead is a few percent, and the
floor leaves room only for timer noise on microsecond-scale runs),
and the geomean speedup over the multi-round flows — the configs where
the reuse machinery actually has repeat work to remove — must meet
--flow-geomean-multi (default 1.2).

Also gates the synthesis-service load report written by service_load
(--json-out) when given via --service FILE: every request must have been
answered with an expected status, the warm payload must be bit-identical
to the direct library result, the client-side p99 latency must stay under
--service-p99 ms, the overall error rate under --service-error-rate, and
the report must carry the server-side per-endpoint latency histograms
(server_endpoints, scraped from /metrics) with derived percentiles for
every endpoint and at least one recorded synthesize request.

Also gates the tracing-overhead report written by trace_overhead
(--json-out) when given via --trace FILE: traced and untraced runs must
produce bit-identical results, the geomean slowdown of the flow_perf
configs with tracing ENABLED must stay under --trace-enabled-overhead
(default 0.10), and the projected cost of the DISABLED trace sites
(micro-measured ns/site x sites hit, relative to the untraced runtime)
must stay under --trace-disabled-overhead (default 0.02) on every
config — the always-compiled instrumentation must be free when off.

Also gates the differential-fuzzing report written by fuzz_synth
(--json-out) when given via --fuzz FILE: scenarios must actually have
executed, and the run must report zero core-vs-reference divergences
and ok == true.

Every malformed report (unreadable file, invalid JSON, wrong shape)
fails the gate with a readable `file: reason` line — never a traceback.
--self-test exercises exactly that contract against synthetic reports.

Usage:
  scripts/check_bench.py BENCH_route.json BENCH_place.json \
      BENCH_sched.json --min-speedup 1.0 --geomean BENCH_sched.json=1.5
  scripts/check_bench.py --flow BENCH_flow.json --flow-geomean-multi 1.2
  scripts/check_bench.py --service BENCH_service.json --service-p99 2000
  scripts/check_bench.py --fuzz BENCH_fuzz.json
  scripts/check_bench.py --trace BENCH_trace.json
  scripts/check_bench.py --self-test
"""

import argparse
import json
import math
import os
import sys


def load_json(path):
    """Loads a report file, turning every failure mode into a ValueError
    whose message names the file and the reason (no tracebacks: a broken
    artifact should fail the gate readably, like a regression would)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read file: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("top level is not a JSON object")
    return doc


def load_benchmarks(path):
    doc = load_json(path)
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ValueError("no 'benchmarks' array")
    return doc, benchmarks


def check_file(path, min_speedup, geomean_floor):
    errors = []
    _, benchmarks = load_benchmarks(path)
    speedups = []
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            errors.append(f"{path}: benchmarks[{i}] is not an object")
            continue
        name = entry.get("name", "<unnamed>")
        if entry.get("identical") is not True:
            errors.append(
                f"{path}: {name}: core result is not reported identical "
                f"to the reference (identical={entry.get('identical')!r})"
            )
        speedup = entry.get("speedup")
        if not isinstance(speedup, (int, float)) or speedup <= 0:
            errors.append(f"{path}: {name}: missing or invalid speedup")
            continue
        speedups.append(float(speedup))
        if speedup < min_speedup:
            errors.append(
                f"{path}: {name}: speedup {speedup:.3f}x is below the "
                f"{min_speedup:.2f}x floor"
            )
    geomean = None
    if speedups:
        geomean = math.exp(sum(map(math.log, speedups)) / len(speedups))
        if geomean_floor is not None and geomean < geomean_floor:
            errors.append(
                f"{path}: geomean speedup {geomean:.3f}x is below the "
                f"{geomean_floor:.2f}x floor"
            )
    return errors, speedups, geomean


def check_flow(path, min_speedup, geomean_multi_floor):
    errors = []
    doc, benchmarks = load_benchmarks(path)

    reused = 0
    rerouted = 0
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            errors.append(f"{path}: benchmarks[{i}] is not an object")
            continue
        name = entry.get("name", "<unnamed>")
        if entry.get("identical") is not True:
            errors.append(
                f"{path}: {name}: incremental fixpoint is not reported "
                f"identical to the from-scratch loop "
                f"(identical={entry.get('identical')!r})"
            )
        speedup = entry.get("speedup")
        if not isinstance(speedup, (int, float)) or speedup <= 0:
            errors.append(f"{path}: {name}: missing or invalid speedup")
        elif speedup < min_speedup:
            errors.append(
                f"{path}: {name}: end-to-end speedup {speedup:.3f}x is "
                f"below the {min_speedup:.2f}x floor"
            )
        flow = entry.get("flow")
        if not isinstance(flow, dict):
            errors.append(f"{path}: {name}: missing reuse counters (flow)")
            continue
        for field in ("transports_reused", "transports_rerouted"):
            count = flow.get(field, 0)
            if not isinstance(count, int) or count < 0:
                errors.append(
                    f"{path}: {name}: flow.{field} is not a count "
                    f"({count!r})"
                )
                count = 0
            if field == "transports_reused":
                reused += count
            else:
                rerouted += count

    geomean_multi = doc.get("geomean_speedup_multi_round")
    multi_count = doc.get("multi_round_configs")
    if not isinstance(geomean_multi, (int, float)) or not multi_count:
        errors.append(
            f"{path}: missing geomean_speedup_multi_round / "
            "multi_round_configs (no multi-round flows measured?)"
        )
    elif geomean_multi < geomean_multi_floor:
        errors.append(
            f"{path}: multi-round geomean speedup {geomean_multi:.3f}x "
            f"is below the {geomean_multi_floor:.2f}x floor"
        )

    searches = reused + rerouted
    reuse = reused / searches if searches else 0.0
    print(
        f"{path}: {len(benchmarks)} configs, "
        f"geomean {doc.get('geomean_speedup', 0.0):.2f}x, "
        f"multi-round geomean "
        f"{geomean_multi if isinstance(geomean_multi, (int, float)) else 0.0:.2f}x "
        f"over {multi_count} configs, "
        f"{reused}/{searches} transports reused ({reuse:.0%})"
    )
    return errors


def check_service(path, p99_ceiling_ms, error_rate_ceiling):
    errors = []
    doc = load_json(path)
    service = doc.get("service")
    if not isinstance(service, dict):
        raise ValueError("no 'service' object")

    total = service.get("total", 0)
    if not isinstance(total, int) or total <= 0:
        errors.append(f"{path}: no requests were recorded")
    unanswered = service.get("unanswered")
    if unanswered != 0:
        errors.append(
            f"{path}: {unanswered!r} request(s) were dropped without a "
            "definite HTTP status"
        )
    unexpected = service.get("unexpected_status")
    if unexpected != 0:
        errors.append(
            f"{path}: {unexpected!r} request(s) got a status outside "
            "their traffic class's expected set"
        )
    if service.get("identical") is not True:
        errors.append(
            f"{path}: served warm payload is not bit-identical to the "
            f"direct library result (identical="
            f"{service.get('identical')!r})"
        )
    latency = service.get("latency_ms")
    p99 = latency.get("p99") if isinstance(latency, dict) else None
    if not isinstance(p99, (int, float)):
        errors.append(f"{path}: missing latency_ms.p99")
    elif p99 > p99_ceiling_ms:
        errors.append(
            f"{path}: p99 latency {p99:.1f} ms exceeds the "
            f"{p99_ceiling_ms:.0f} ms ceiling"
        )
    error_rate = service.get("error_rate")
    if not isinstance(error_rate, (int, float)):
        errors.append(f"{path}: missing error_rate")
    elif error_rate > error_rate_ceiling:
        errors.append(
            f"{path}: error rate {error_rate:.4f} exceeds the "
            f"{error_rate_ceiling:.4f} ceiling"
        )
    # Server-side view: per-endpoint latency histograms scraped from
    # /metrics at the end of the run. An empty {} means the scrape or the
    # parse failed — gate on it so the histograms can't silently vanish.
    endpoints = service.get("server_endpoints")
    if not isinstance(endpoints, dict) or not endpoints:
        errors.append(
            f"{path}: missing server_endpoints (per-endpoint latency "
            "histograms scraped from /metrics)"
        )
    else:
        for name in ("synthesize", "healthz", "metrics", "trace"):
            endpoint = endpoints.get(name)
            if not isinstance(endpoint, dict):
                errors.append(
                    f"{path}: server_endpoints.{name} is missing"
                )
                continue
            for field in ("count", "p50_ms", "p90_ms", "p99_ms"):
                if not isinstance(endpoint.get(field), (int, float)):
                    errors.append(
                        f"{path}: server_endpoints.{name}.{field} is "
                        "missing or not a number"
                    )
            if name == "synthesize" and not endpoint.get("count"):
                errors.append(
                    f"{path}: server recorded no synthesize latencies "
                    "(server_endpoints.synthesize.count is 0)"
                )
    summary = (
        f"{path}: {total} requests, unanswered={unanswered}, "
        f"unexpected={unexpected}, p99={p99} ms, error_rate={error_rate}"
    )
    print(summary)
    return errors


def check_fuzz(path):
    """Gates a fuzz_synth --json-out report: the differential fuzzer must
    have executed scenarios and found zero core-vs-reference divergences."""
    errors = []
    doc = load_json(path)
    fuzz = doc.get("fuzz")
    if not isinstance(fuzz, dict):
        raise ValueError("no 'fuzz' object")

    executed = fuzz.get("executed")
    if not isinstance(executed, int) or executed <= 0:
        errors.append(
            f"{path}: no scenarios were executed (executed={executed!r})"
        )
    divergences = fuzz.get("divergences")
    if divergences != 0:
        errors.append(
            f"{path}: {divergences!r} core-vs-reference divergence(s) — "
            "see the shrunk repros the fuzzer wrote alongside this report"
        )
    if fuzz.get("ok") is not True:
        errors.append(
            f"{path}: fuzz run did not report ok "
            f"(ok={fuzz.get('ok')!r})"
        )
    print(
        f"{path}: seed {fuzz.get('seed')}, {executed} scenario(s) "
        f"({fuzz.get('corpus_replayed', 0)} from corpus), "
        f"divergences={divergences}, "
        f"degenerate={fuzz.get('degenerate')}, "
        f"non_converged={fuzz.get('non_converged')}, "
        f"{fuzz.get('operations')} ops / {fuzz.get('transports')} "
        f"transports in {fuzz.get('elapsed_s')} s"
    )
    return errors


def check_trace(path, disabled_ceiling, enabled_ceiling):
    """Gates a trace_overhead --json-out report: tracing must never change
    results, must cost little when on, and ~nothing when off."""
    errors = []
    doc, benchmarks = load_benchmarks(path)

    if doc.get("identical") is not True:
        errors.append(
            f"{path}: traced run is not reported identical to the "
            f"untraced run (identical={doc.get('identical')!r})"
        )
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            errors.append(f"{path}: benchmarks[{i}] is not an object")
            continue
        name = entry.get("name", "<unnamed>")
        if entry.get("identical") is not True:
            errors.append(
                f"{path}: {name}: traced result diverged from the "
                f"untraced result (identical={entry.get('identical')!r})"
            )
        projected = entry.get("projected_disabled_overhead")
        if not isinstance(projected, (int, float)) or projected < 0:
            errors.append(
                f"{path}: {name}: missing projected_disabled_overhead"
            )
        elif projected > disabled_ceiling:
            errors.append(
                f"{path}: {name}: projected disabled-site overhead "
                f"{projected:.2%} exceeds the {disabled_ceiling:.0%} "
                "ceiling"
            )

    geomean_enabled = doc.get("geomean_enabled_overhead")
    if not isinstance(geomean_enabled, (int, float)):
        errors.append(f"{path}: missing geomean_enabled_overhead")
    elif geomean_enabled > enabled_ceiling:
        errors.append(
            f"{path}: geomean enabled overhead {geomean_enabled:.2%} "
            f"exceeds the {enabled_ceiling:.0%} ceiling"
        )
    max_disabled = doc.get("max_projected_disabled_overhead")
    if not isinstance(max_disabled, (int, float)):
        errors.append(f"{path}: missing max_projected_disabled_overhead")

    micro = doc.get("micro")
    micro = micro if isinstance(micro, dict) else {}
    print(
        f"{path}: {len(benchmarks)} configs, "
        f"{micro.get('ns_per_site_disabled', '?')} ns/site disabled, "
        f"{micro.get('ns_per_event_enabled', '?')} ns/event enabled, "
        f"geomean enabled overhead "
        f"{geomean_enabled if isinstance(geomean_enabled, (int, float)) else 0.0:.2%}, "
        f"max projected disabled overhead "
        f"{max_disabled if isinstance(max_disabled, (int, float)) else 0.0:.2%}"
    )
    return errors


def self_test():
    """Unit checks for the gate itself: every malformed-report shape must
    produce a readable `file: reason` line and exit 1 — never a traceback —
    and well-formed reports must pass. Run from CI before the real gates."""
    import contextlib
    import io
    import tempfile

    good_perf = {
        "benchmarks": [{"name": "b1", "identical": True, "speedup": 2.0}]
    }
    good_fuzz = {
        "fuzz": {
            "seed": 1,
            "requested": 10,
            "executed": 10,
            "corpus_replayed": 4,
            "divergences": 0,
            "degenerate": 0,
            "non_converged": 2,
            "operations": 170,
            "transports": 120,
            "max_fixpoint_rounds": 21,
            "elapsed_s": 0.05,
            "ok": True,
        }
    }

    def diverged_fuzz():
        doc = json.loads(json.dumps(good_fuzz))
        doc["fuzz"]["divergences"] = 2
        doc["fuzz"]["ok"] = False
        return doc

    good_trace = {
        "reps": 3,
        "micro": {"ns_per_site_disabled": 0.1, "ns_per_event_enabled": 70.0},
        "benchmarks": [
            {
                "name": "PCR/dcsa",
                "disabled_seconds": 0.01,
                "enabled_seconds": 0.0104,
                "events": 500,
                "enabled_overhead": 0.04,
                "projected_disabled_overhead": 0.0001,
                "identical": True,
            }
        ],
        "geomean_enabled_overhead": 0.04,
        "max_projected_disabled_overhead": 0.0001,
        "identical": True,
    }

    def costly_trace():
        doc = json.loads(json.dumps(good_trace))
        doc["benchmarks"][0]["projected_disabled_overhead"] = 0.05
        doc["max_projected_disabled_overhead"] = 0.05
        doc["geomean_enabled_overhead"] = 0.25
        return doc

    def divergent_trace():
        doc = json.loads(json.dumps(good_trace))
        doc["benchmarks"][0]["identical"] = False
        doc["identical"] = False
        return doc

    good_service = {
        "service": {
            "total": 20,
            "unanswered": 0,
            "unexpected_status": 0,
            "identical": True,
            "latency_ms": {"p99": 12.0},
            "error_rate": 0.0,
            "server_endpoints": {
                name: {
                    "count": 5,
                    "mean_ms": 1.0,
                    "p50_ms": 1.0,
                    "p90_ms": 2.0,
                    "p99_ms": 3.0,
                    "max_ms": 4.0,
                }
                for name in ("synthesize", "healthz", "metrics", "trace")
            },
        }
    }

    def endpointless_service():
        doc = json.loads(json.dumps(good_service))
        del doc["service"]["server_endpoints"]
        return doc

    good_flow = {
        "reps": 3,
        "benchmarks": [
            {
                "name": "PCR/dcsa",
                "speedup": 1.0,
                "identical": True,
                "flow": {"rounds": 1, "transports_rerouted": 3,
                         "transports_reused": 0, "cells_evicted": 0},
            },
            {
                "name": "CPA/baseline",
                "speedup": 1.6,
                "identical": True,
                "flow": {"rounds": 3, "transports_rerouted": 47,
                         "transports_reused": 58, "cells_evicted": 51},
            },
        ],
        "geomean_speedup": 1.26,
        "geomean_speedup_multi_round": 1.6,
        "multi_round_configs": 1,
    }

    def edited(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    failures = []

    def case(name, content, extra_argv, want_exit, want_text=()):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            if content is not None:
                with open(path, "w", encoding="utf-8") as fh:
                    if isinstance(content, str):
                        fh.write(content)
                    else:
                        json.dump(content, fh)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                    out
                ):
                    code = main([path] if not extra_argv else extra_argv + [path])
            except SystemExit as exc:  # argparse errors
                code = exc.code
            except Exception as exc:  # noqa: BLE001 — a traceback IS the bug
                failures.append(
                    f"{name}: raised {type(exc).__name__}: {exc} "
                    "(gates must report malformed files, not crash)"
                )
                return
            text = out.getvalue()
            if code != want_exit:
                failures.append(
                    f"{name}: exit {code}, want {want_exit}; output:\n{text}"
                )
            for needle in want_text:
                if needle not in text:
                    failures.append(
                        f"{name}: output is missing {needle!r}; got:\n{text}"
                    )

    case("good perf file passes", good_perf, [], 0, ["all benchmark gates"])
    case("missing file is readable", None, [], 1, ["cannot read file"])
    case("invalid JSON is readable", "{not json", [], 1, ["not valid JSON"])
    case("non-object top level", "[1, 2]", [], 1, ["not a JSON object"])
    case(
        "non-object benchmark entry",
        {"benchmarks": ["oops"]},
        [],
        1,
        ["benchmarks[0] is not an object"],
    )
    case(
        "slow benchmark fails the floor",
        {"benchmarks": [{"name": "b", "identical": True, "speedup": 0.5}]},
        [],
        1,
        ["below the 1.00x floor"],
    )
    case(
        "perf entry not identical fails",
        edited(good_perf, lambda d: d["benchmarks"][0].update(identical=False)),
        [],
        1,
        ["b1: core result is not reported identical"],
    )
    case(
        "geomean below its --geomean floor fails",
        good_perf,
        ["--geomean", "report.json=3"],
        1,
        ["geomean speedup 2.000x is below the 3.00x floor"],
    )
    case("good flow report passes", good_flow, ["--flow"], 0,
         ["all benchmark gates"])
    case(
        "flow config not identical fails",
        edited(good_flow, lambda d: d["benchmarks"][1].update(identical=False)),
        ["--flow"],
        1,
        ["CPA/baseline: incremental fixpoint is not reported identical"],
    )
    case(
        "flow config below the per-config floor fails",
        edited(good_flow, lambda d: d["benchmarks"][0].update(speedup=0.5)),
        ["--flow"],
        1,
        ["PCR/dcsa: end-to-end speedup 0.500x is below the 0.85x floor"],
    )
    case(
        "multi-round geomean below its floor fails",
        edited(good_flow,
               lambda d: d.update(geomean_speedup_multi_round=1.1)),
        ["--flow"],
        1,
        ["multi-round geomean speedup 1.100x is below the 1.20x floor"],
    )
    case(
        "flow report without a multi-round geomean fails",
        edited(good_flow, lambda d: d.pop("geomean_speedup_multi_round")),
        ["--flow"],
        1,
        ["missing geomean_speedup_multi_round"],
    )
    case(
        "service latency_ms not an object",
        {
            "service": {
                "total": 5,
                "unanswered": 0,
                "unexpected_status": 0,
                "identical": True,
                "latency_ms": "fast",
                "error_rate": 0.0,
            }
        },
        ["--service"],
        1,
        ["missing latency_ms.p99"],
    )
    case(
        "good service report passes",
        good_service,
        ["--service"],
        0,
        ["all benchmark gates"],
    )
    case(
        "service without endpoint histograms fails",
        endpointless_service(),
        ["--service"],
        1,
        ["missing server_endpoints"],
    )
    case(
        "good trace report passes",
        good_trace,
        ["--trace"],
        0,
        ["geomean enabled overhead"],
    )
    case(
        "costly trace sites fail both ceilings",
        costly_trace(),
        ["--trace"],
        1,
        ["projected disabled-site overhead", "geomean enabled overhead 25.00%"],
    )
    case(
        "divergent trace run fails",
        divergent_trace(),
        ["--trace"],
        1,
        ["diverged from the untraced result"],
    )
    case("good fuzz report passes", good_fuzz, ["--fuzz"], 0, ["divergences=0"])
    case(
        "fuzz divergence fails",
        diverged_fuzz(),
        ["--fuzz"],
        1,
        ["divergence(s)", "did not report ok"],
    )
    case(
        "fuzz report without fuzz object",
        {"benchmarks": []},
        ["--fuzz"],
        1,
        ["no 'fuzz' object"],
    )
    case(
        "fuzz report with zero executed",
        {"fuzz": {"executed": 0, "divergences": 0, "ok": True}},
        ["--fuzz"],
        1,
        ["no scenarios were executed"],
    )

    if failures:
        print(f"{len(failures)} self-test failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("check_bench.py self-test: all cases passed")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fail when a core-vs-reference bench regresses."
    )
    parser.add_argument(
        "files", nargs="*", default=[], help="BENCH_*.json perf files"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="per-benchmark speedup floor (default: 1.0)",
    )
    parser.add_argument(
        "--geomean",
        action="append",
        default=[],
        metavar="FILE=X",
        help="geomean speedup floor for one file, by basename "
        "(e.g. BENCH_sched.json=1.5); repeatable",
    )
    parser.add_argument(
        "--flow",
        action="append",
        default=[],
        metavar="FILE",
        help="BENCH_flow.json route–retime fixpoint report(s) to gate; "
        "repeatable",
    )
    parser.add_argument(
        "--flow-min-speedup",
        type=float,
        default=0.85,
        help="per-config end-to-end speedup floor for --flow files "
        "(default: 0.85 — slack only for timer noise on single-round "
        "flows, whose theoretical best is parity; pooled probe buffers "
        "keep the footprint-recording overhead to a few percent)",
    )
    parser.add_argument(
        "--flow-geomean-multi",
        type=float,
        default=1.2,
        help="geomean speedup floor over multi-round flows for --flow "
        "files (default: 1.2)",
    )
    parser.add_argument(
        "--service",
        action="append",
        default=[],
        metavar="FILE",
        help="BENCH_service.json load report(s) to gate; repeatable",
    )
    parser.add_argument(
        "--service-p99",
        type=float,
        default=5000.0,
        help="service p99 latency ceiling in ms (default: 5000)",
    )
    parser.add_argument(
        "--service-error-rate",
        type=float,
        default=0.0,
        help="service error-rate ceiling (default: 0.0)",
    )
    parser.add_argument(
        "--fuzz",
        action="append",
        default=[],
        metavar="FILE",
        help="BENCH_fuzz.json differential-fuzzing report(s) to gate "
        "(fuzz_synth --json-out); repeatable",
    )
    parser.add_argument(
        "--trace",
        action="append",
        default=[],
        metavar="FILE",
        help="BENCH_trace.json tracing-overhead report(s) to gate "
        "(trace_overhead --json-out); repeatable",
    )
    parser.add_argument(
        "--trace-disabled-overhead",
        type=float,
        default=0.02,
        help="per-config ceiling on the projected cost of disabled trace "
        "sites, as a fraction of untraced runtime (default: 0.02)",
    )
    parser.add_argument(
        "--trace-enabled-overhead",
        type=float,
        default=0.10,
        help="geomean ceiling on the slowdown with tracing enabled "
        "(default: 0.10)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the gate's own unit checks against synthetic reports "
        "and exit",
    )
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if (
        not args.files
        and not args.service
        and not args.flow
        and not args.fuzz
        and not args.trace
    ):
        parser.error(
            "nothing to check: give perf files, --flow, --service, "
            "--fuzz, and/or --trace"
        )

    geomean_floors = {}
    for spec in args.geomean:
        name, sep, value = spec.partition("=")
        if not sep:
            parser.error(f"--geomean needs FILE=X, got {spec!r}")
        geomean_floors[os.path.basename(name)] = float(value)

    all_errors = []
    for path in args.files:
        floor = geomean_floors.get(os.path.basename(path))
        try:
            errors, speedups, geomean = check_file(
                path, args.min_speedup, floor
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            all_errors.append(f"{path}: {exc}")
            continue
        all_errors.extend(errors)
        summary = (
            f"{path}: {len(speedups)} benchmarks, "
            f"min {min(speedups):.2f}x, geomean {geomean:.2f}x"
            if speedups
            else f"{path}: no speedups"
        )
        if floor is not None:
            summary += f" (floor {floor:.2f}x)"
        print(summary)

    for path in args.flow:
        try:
            all_errors.extend(
                check_flow(
                    path,
                    args.flow_min_speedup,
                    args.flow_geomean_multi,
                )
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            all_errors.append(f"{path}: {exc}")

    for path in args.service:
        try:
            all_errors.extend(
                check_service(
                    path, args.service_p99, args.service_error_rate
                )
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            all_errors.append(f"{path}: {exc}")

    for path in args.fuzz:
        try:
            all_errors.extend(check_fuzz(path))
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            all_errors.append(f"{path}: {exc}")

    for path in args.trace:
        try:
            all_errors.extend(
                check_trace(
                    path,
                    args.trace_disabled_overhead,
                    args.trace_enabled_overhead,
                )
            )
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            all_errors.append(f"{path}: {exc}")

    if all_errors:
        print(f"\n{len(all_errors)} regression(s):", file=sys.stderr)
        for error in all_errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    print("all benchmark gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
