#!/usr/bin/env python3
"""Benchmark regression gates for the service, tracing and fuzzing reports.

Gates the synthesis-service load report written by service_load
(--json-out) when given via --service FILE: every request must have been
answered with an expected status, the warm payload must be bit-identical
to the direct library result, the client-side p99 latency must stay under
--service-p99 ms, the overall error rate under --service-error-rate, and
the report must carry the server-side per-endpoint latency histograms
(server_endpoints, scraped from /metrics) with derived percentiles for
every endpoint, none above that endpoint's max_ms, and at least one
recorded synthesize request.

Gates the tracing-overhead report written by trace_overhead (--json-out)
when given via --trace FILE: traced and untraced runs must produce
bit-identical results, the geomean slowdown of the route–retime
fixpoints with tracing ENABLED must stay under --trace-enabled-overhead
(default 0.10), and the projected cost of the DISABLED trace sites
(micro-measured ns/site x sites hit, relative to the untraced runtime)
must stay under --trace-disabled-overhead (default 0.02) on every
config — the always-compiled instrumentation must be free when off.

Gates the differential-fuzzing report written by fuzz_synth (--json-out)
when given via --fuzz FILE: scenarios must actually have executed, and
the run must report zero core-vs-reference divergences and ok == true.

Every malformed report (unreadable file, invalid JSON, wrong shape)
fails the gate with a readable `file: reason` line — never a traceback.
--self-test exercises exactly that contract against synthetic reports,
and has a case that fails when any one check above is removed.

Usage:
  scripts/check_bench.py --service BENCH_service.json --service-p99 2000
  scripts/check_bench.py --fuzz BENCH_fuzz.json
  scripts/check_bench.py --trace BENCH_trace.json
  scripts/check_bench.py --self-test
"""

import argparse
import json
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
            for field in ("count", "p50_ms", "p90_ms", "p99_ms", "max_ms"):
                if not isinstance(endpoint.get(field), (int, float)):
                    errors.append(
                        f"{path}: server_endpoints.{name}.{field} is "
                        "missing or not a number"
                    )
            # A percentile is a bucket bound clamped to the exact max; one
            # above the max is a histogram that reports the bucket instead.
            max_ms = endpoint.get("max_ms")
            for field in ("p50_ms", "p90_ms", "p99_ms"):
                value = endpoint.get(field)
                if (isinstance(value, (int, float))
                        and isinstance(max_ms, (int, float))
                        and value > max_ms):
                    errors.append(
                        f"{path}: server_endpoints.{name}.{field} "
                        f"{value} exceeds max_ms {max_ms}"
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
    doc = load_json(path)
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        raise ValueError("no 'benchmarks' array")

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
    well-formed reports must pass, and each check has a case that fails
    without it. Run from CI before the real gates."""
    import contextlib
    import io
    import tempfile

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

    def edited(doc, edit):
        doc = json.loads(json.dumps(doc))
        edit(doc)
        return doc

    def failing_service(service):
        service.update(total=0, unanswered=1, unexpected_status=2,
                       identical=False, latency_ms={"p99": 9000.0},
                       error_rate=0.5)
        endpoints = service["server_endpoints"]
        del endpoints["trace"]
        endpoints["synthesize"]["count"] = 0
        del endpoints["synthesize"]["p99_ms"]

    def costly_trace(doc):
        doc["benchmarks"][0]["projected_disabled_overhead"] = 0.05
        doc["max_projected_disabled_overhead"] = 0.05
        doc["geomean_enabled_overhead"] = 0.25

    def divergent_trace(doc):
        doc["benchmarks"][0]["identical"] = False
        doc["identical"] = False

    def unmeasured_trace(doc):
        del doc["benchmarks"][0]["projected_disabled_overhead"]
        del doc["geomean_enabled_overhead"]
        del doc["max_projected_disabled_overhead"]

    def diverged_fuzz(doc):
        doc["fuzz"].update(divergences=2, ok=False)

    failures = []

    def case(name, content, flag, want_exit, want_text=()):
        """Runs the gate `flag` (none: no gate at all) on `content`: a
        JSON-able document, raw text, or None for a missing file."""
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
                    code = main([flag, path] if flag else [])
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

    case("no gate given is a usage error", None, None, 2, ["nothing to check"])
    case("missing file is readable", None, "--fuzz", 1, ["cannot read file"])
    case("invalid JSON is readable", "{not json", "--service", 1,
         ["not valid JSON"])
    case("non-object top level", "[1, 2]", "--trace", 1, ["not a JSON object"])
    case(
        "non-object benchmark entry",
        edited(good_trace, lambda d: d.update(benchmarks=["oops"])),
        "--trace",
        1,
        ["benchmarks[0] is not an object"],
    )
    case("good service report passes", good_service, "--service", 0,
         ["all benchmark gates"])
    case("service report without service object", {"fuzz": {}}, "--service",
         1, ["no 'service' object"])
    case(
        "every service check fails its report",
        edited(good_service, lambda d: failing_service(d["service"])),
        "--service",
        1,
        [
            "no requests were recorded",
            "1 request(s) were dropped",
            "2 request(s) got a status outside",
            "not bit-identical",
            "p99 latency 9000.0 ms exceeds the 5000 ms ceiling",
            "error rate 0.5000 exceeds the 0.0000 ceiling",
            "server_endpoints.trace is missing",
            "server_endpoints.synthesize.p99_ms is missing",
            "server recorded no synthesize latencies",
        ],
    )
    case(
        "service latency_ms and error_rate missing",
        edited(good_service,
               lambda d: d["service"].update(latency_ms="fast", error_rate=None)),
        "--service",
        1,
        ["missing latency_ms.p99", "missing error_rate"],
    )
    case(
        "endpoint percentile above its max fails",
        edited(good_service,
               lambda d: d["service"]["server_endpoints"]["healthz"].update(
                   p50_ms=0.1, max_ms=0.0016)),
        "--service",
        1,
        ["server_endpoints.healthz.p50_ms 0.1 exceeds max_ms 0.0016",
         "server_endpoints.healthz.p90_ms 2.0 exceeds max_ms 0.0016"],
    )
    case(
        "service without endpoint histograms fails",
        edited(good_service, lambda d: d["service"].pop("server_endpoints")),
        "--service",
        1,
        ["missing server_endpoints"],
    )
    case("good trace report passes", good_trace, "--trace", 0,
         ["geomean enabled overhead"])
    case("trace report without benchmarks", {"identical": True}, "--trace", 1,
         ["no 'benchmarks' array"])
    case(
        "costly trace sites fail both ceilings",
        edited(good_trace, costly_trace),
        "--trace",
        1,
        ["projected disabled-site overhead",
         "geomean enabled overhead 25.00% exceeds the 10% ceiling"],
    )
    case(
        "divergent trace run fails",
        edited(good_trace, divergent_trace),
        "--trace",
        1,
        ["traced run is not reported identical",
         "diverged from the untraced result"],
    )
    case(
        "trace report without its overheads fails",
        edited(good_trace, unmeasured_trace),
        "--trace",
        1,
        ["missing projected_disabled_overhead",
         "missing geomean_enabled_overhead",
         "missing max_projected_disabled_overhead"],
    )
    case("good fuzz report passes", good_fuzz, "--fuzz", 0, ["divergences=0"])
    case(
        "fuzz divergence fails",
        edited(good_fuzz, diverged_fuzz),
        "--fuzz",
        1,
        ["divergence(s)", "did not report ok"],
    )
    case("fuzz report without fuzz object", {"benchmarks": []}, "--fuzz", 1,
         ["no 'fuzz' object"])
    case(
        "fuzz report with zero executed",
        {"fuzz": {"executed": 0, "divergences": 0, "ok": True}},
        "--fuzz",
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
        description="Fail when a service, tracing or fuzzing report regresses."
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
    if not args.service and not args.fuzz and not args.trace:
        parser.error("nothing to check: give --service, --fuzz and/or --trace")

    gates = [
        (args.service,
         lambda path: check_service(path, args.service_p99,
                                    args.service_error_rate)),
        (args.fuzz, check_fuzz),
        (args.trace,
         lambda path: check_trace(path, args.trace_disabled_overhead,
                                  args.trace_enabled_overhead)),
    ]
    all_errors = []
    for paths, check in gates:
        for path in paths:
            try:
                all_errors.extend(check(path))
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
