#!/usr/bin/env python3
"""Benchmark regression guard for the CI perf trajectory.

Compares items_per_second of selected benchmarks between a committed
baseline and a freshly recorded one, prints a per-benchmark old -> new
throughput table, and fails when the geometric mean drops by more than
the allowed fraction.

Understands two file formats:
  * google-benchmark JSON (BENCH_micro.json): entries under "benchmarks"
    with an items_per_second counter;
  * the campaign runner's own JSON (BENCH_campaign.json): entries under
    "campaigns", ingested as synthetic benchmarks named
    campaign/<scenario>/w<workers> with measurements_per_s as throughput.

Build-type policy: every ingested file must carry our own NDEBUG-derived
context stamp ropuf_build_type == "release" (bench_util.hpp writes it).
google-benchmark's library_build_type records how *libbenchmark itself*
was compiled — distro packages often ship debug-flavored — so it says
nothing about the flags our kernels ran under and is deliberately not
consulted. A file whose ropuf_build_type is "debug" or missing is a hard
error unless --allow-debug is given: figures recorded from -O0 binaries
are the methodology bug this guard exists to prevent.

A second mode, --compare BASE_PREFIX --with-prefix VARIANT_PREFIX,
pairs benchmarks *within one file* (--current) by the suffix after the
prefix: BM_SimdMeasure/8 pairs with BM_SimdMeasureObs/8. The geomean
of variant/base ratios is held to the same floor — the obs
zero-overhead guard, where the variant is the identically-shaped
benchmark run with a metrics registry installed. --baseline is not
consulted in this mode.

Core-count policy: campaign scaling benches (names under "campaign/")
measure multi-worker throughput, which scales with the host's core count —
a w4 figure from a 4-core host versus a 1-core host is a hardware diff,
not a regression. When any guarded benchmark is a campaign bench, the
baseline and current files must have been recorded on the same logical
core count (context.hardware_concurrency for campaign files, num_cpus for
google-benchmark files); a mismatch is a hard error. CI runners with
drifting shapes can pass --skip-on-core-mismatch to turn the refusal into
a loud warning + clean exit — a skipped comparison, never a wrong one.

Usage:
  check_bench_regression.py --baseline BENCH_micro.baseline.json \
      --current BENCH_micro.json --max-drop 0.30
  # default guarded set: BM_RoArrayBatchedScan, BM_SimdMeasure,
  # BM_MajorityVote, BM_BchSyndrome, BM_FleetMeasure, BM_BchEncode,
  # BM_BchDecodeTErrors, BM_DistillerFit, BM_DistillerResiduals; override
  # with repeated --benchmark
  check_bench_regression.py --baseline a.json --current b.json \
      --benchmark campaign/
  # obs overhead guard (within-file pairing):
  check_bench_regression.py --current BENCH_micro.json \
      --compare BM_SimdMeasure --with-prefix BM_SimdMeasureObs --max-drop 0.03
"""

import argparse
import json
import math
import sys

DEFAULT_PREFIXES = [
    "BM_RoArrayBatchedScan",
    "BM_SimdMeasure",
    "BM_MajorityVote",
    "BM_BchSyndrome",
    "BM_FleetMeasure",
    "BM_BchEncode",
    "BM_BchDecodeTErrors",
    "BM_DistillerFit",
    "BM_DistillerResiduals",
]


def load(path, allow_debug):
    with open(path) as f:
        data = json.load(f)
    build_type = data.get("context", {}).get("ropuf_build_type")
    if build_type != "release" and not allow_debug:
        sys.exit(
            f"ERROR: {path} has ropuf_build_type={build_type!r}; only "
            "'release' figures are comparable. (library_build_type is "
            "libbenchmark's own build stamp and is ignored.) Re-record "
            "with CMAKE_BUILD_TYPE=Release or pass --allow-debug."
        )
    # Sanitizer policy: a TSan/ASan-instrumented binary runs 2-20x slower
    # in ways that are NOT uniform across kernels, so a sanitizer-recorded
    # file is useless both as a baseline and as a current measurement.
    # Baselines committed before the stamp existed carry no key; treat
    # missing as "none" so they stay ingestible. There is deliberately no
    # --allow-sanitizer escape hatch: unlike a debug build (sometimes
    # useful for a smoke comparison), a sanitized figure has no legitimate
    # consumer here.
    sanitizer = data.get("context", {}).get("ropuf_sanitizer", "none")
    if sanitizer != "none":
        sys.exit(
            f"ERROR: {path} was recorded under -fsanitize={sanitizer} "
            "(context.ropuf_sanitizer); sanitizer instrumentation distorts "
            "throughput non-uniformly, so the figures are not comparable. "
            "Re-record with ROPUF_SANITIZE=none."
        )
    return data


def core_count(data):
    """Logical cores the file was recorded on. The campaign runner stamps
    context.hardware_concurrency; google-benchmark stamps num_cpus."""
    ctx = data.get("context", {})
    cores = ctx.get("hardware_concurrency", ctx.get("num_cpus"))
    return int(cores) if cores is not None else None


def throughputs(data, prefixes):
    out = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if "items_per_second" in bench:
            out[name] = float(bench["items_per_second"])
    for campaign in data.get("campaigns", []):
        name = (
            f"campaign/{campaign.get('scenario', '?')}"
            f"/w{campaign.get('workers', 0)}"
        )
        if "measurements_per_s" in campaign:
            out[name] = float(campaign["measurements_per_s"])
    return {
        name: v
        for name, v in out.items()
        if any(name.startswith(p) for p in prefixes)
    }


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def compare_within(args):
    """--compare mode: pair BASE_PREFIX/... with VARIANT_PREFIX/... inside
    --current and hold the variant/base throughput geomean to the floor."""
    all_names = throughputs(load(args.current, args.allow_debug), [""])
    base_p, var_p = args.compare, args.with_prefix
    pairs = []
    for name, value in sorted(all_names.items()):
        if not name.startswith(base_p):
            continue
        # The variant's name usually extends the base prefix
        # (BM_SimdMeasureObs startswith BM_SimdMeasure) — keep those out
        # of the base set so each suffix pairs exactly once.
        if var_p.startswith(base_p) and name.startswith(var_p):
            continue
        variant_name = var_p + name[len(base_p):]
        if variant_name in all_names:
            pairs.append((name, variant_name, value, all_names[variant_name]))
    if not pairs:
        sys.exit(
            f"ERROR: no {base_p}*/{var_p}* benchmark pairs found in "
            f"{args.current} — the guarded pair was renamed or not run"
        )

    print(f"{'benchmark':<36} {'base':>14} {'variant':>14} {'ratio':>8}")
    for base_name, variant_name, base_v, var_v in pairs:
        print(f"{base_name:<36} {base_v:>12.3e} {var_v:>12.3e} "
              f"{var_v / base_v:>8.3f}")

    ratio = geomean([var_v / base_v for _, _, base_v, var_v in pairs])
    floor = 1.0 - args.max_drop
    print(f"\ngeometric-mean throughput ratio ({var_p} / {base_p}): "
          f"{ratio:.3f} (floor {floor:.2f})")
    if ratio < floor:
        sys.exit(
            f"FAIL: {var_p} throughput is more than {args.max_drop:.0%} "
            f"below {base_p} — overhead contract violated"
        )
    print("OK: within regression budget")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="committed baseline file (required unless "
                             "--compare)")
    parser.add_argument("--current", required=True)
    parser.add_argument("--benchmark", action="append", default=None,
                        metavar="PREFIX",
                        help="benchmark name prefix to compare (repeatable; "
                             f"default: {', '.join(DEFAULT_PREFIXES)})")
    parser.add_argument("--max-drop", type=float, default=0.30,
                        help="maximum allowed fractional throughput drop")
    parser.add_argument("--allow-debug", action="store_true",
                        help="permit figures recorded from debug builds")
    parser.add_argument("--skip-on-core-mismatch", action="store_true",
                        help="when campaign scaling benches are guarded and "
                             "the baseline/current core counts differ, warn "
                             "loudly and exit 0 instead of failing (CI "
                             "escape for runner-shape drift)")
    parser.add_argument("--compare", metavar="BASE_PREFIX",
                        help="within-file mode: base benchmark name prefix")
    parser.add_argument("--with-prefix", metavar="VARIANT_PREFIX",
                        help="within-file mode: variant prefix paired with "
                             "--compare by name suffix")
    args = parser.parse_args()
    if (args.compare is None) != (args.with_prefix is None):
        parser.error("--compare and --with-prefix must be given together")
    if args.compare is not None:
        compare_within(args)
        return
    if args.baseline is None:
        parser.error("--baseline is required (unless using --compare)")
    prefixes = args.benchmark if args.benchmark else DEFAULT_PREFIXES

    base_data = load(args.baseline, args.allow_debug)
    curr_data = load(args.current, args.allow_debug)
    base = throughputs(base_data, prefixes)
    curr = throughputs(curr_data, prefixes)
    common = sorted(set(base) & set(curr))

    # Campaign scaling benches are only comparable between equal-core hosts:
    # measurements_per_s at w>1 scales with physical parallelism, so a core
    # count diff would surface as a phantom regression (or mask a real one).
    if any(name.startswith("campaign/") for name in set(base) | set(curr)):
        base_cores, curr_cores = core_count(base_data), core_count(curr_data)
        if base_cores is None or curr_cores is None or base_cores != curr_cores:
            msg = (
                f"campaign scaling benches recorded on different core counts: "
                f"baseline {args.baseline} has "
                f"{base_cores if base_cores is not None else 'no core stamp'}, "
                f"current {args.current} has "
                f"{curr_cores if curr_cores is not None else 'no core stamp'}. "
                "Multi-worker throughput scales with the host shape, so this "
                "comparison would measure hardware, not code. Re-record the "
                "baseline on a matching host."
            )
            if args.skip_on_core_mismatch:
                print(f"WARNING: {msg}")
                print("SKIPPED: core-count mismatch — no comparison performed "
                      "(--skip-on-core-mismatch)")
                return
            sys.exit(f"ERROR: {msg} (or pass --skip-on-core-mismatch in CI)")
    # A guarded prefix that matches nothing in common is itself an error:
    # a silently renamed or dropped benchmark must not pass as "no data".
    missing = [
        p for p in prefixes if not any(name.startswith(p) for name in common)
    ]
    if missing:
        sys.exit(
            f"ERROR: no common benchmarks with throughput data for "
            f"prefix(es) {', '.join(missing)} between {args.baseline} "
            f"and {args.current}"
        )

    print(f"{'benchmark':<36} {'baseline':>14} {'current':>14} {'ratio':>8}")
    for name in common:
        ratio = curr[name] / base[name]
        print(f"{name:<36} {base[name]:>12.3e} {curr[name]:>12.3e} {ratio:>8.3f}")

    ratio = geomean([curr[n] / base[n] for n in common])
    floor = 1.0 - args.max_drop
    print(f"\ngeometric-mean throughput ratio: {ratio:.3f} (floor {floor:.2f})")
    if ratio < floor:
        sys.exit(
            f"FAIL: guarded throughput ({', '.join(prefixes)}) dropped more "
            f"than {args.max_drop:.0%} versus the committed baseline"
        )
    print("OK: within regression budget")


if __name__ == "__main__":
    main()
