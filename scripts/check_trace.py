#!/usr/bin/env python3
"""Validate simulator observability artifacts (CI smoke checker).

Usage:
  check_trace.py --chrome-trace FILE [--require-kinds k1,k2,...]
  check_trace.py --stats-json FILE
  check_trace.py --interval-csv FILE
  check_trace.py --service-response FILE [--expect-cache-hits N]
  check_trace.py --snapshot FILE

Checks (stdlib only, no dependencies):
  Chrome trace: document parses, has displayTimeUnit + traceEvents, event
  timestamps are sorted, every event's tid has a thread_name metadata
  record, B/E stall slices balance per track, and (optionally) all
  --require-kinds event names appear at least once.
  Stats JSON:  schema_version matches, every run entry has arch/bench/ok/
  error/config, successful runs carry metrics and a non-empty counters
  object of non-negative integers.
  Interval CSV: header starts cycle,ps and ends row_hit_rate,ipc; rows are
  rectangular; the cycle column strictly increases.
  Service response: a file of raw mlpserved response frames (mlpclient
  --raw output, one JSON object per line): every frame carries the ok/type
  envelope, errors carry a typed kind, result responses embed a parseable
  stats run object consistent with the stats-JSON run schema, and status
  responses carry the cache counter block (--expect-cache-hits asserts a
  minimum observed hits value across them).
  Snapshot: an MLPSNAP checkpoint blob (mlpsim --checkpoint-out): magic +
  version header, a well-formed section table (every section's length
  inside the blob, no duplicate ids, meta first, stats last), a fully
  consumed meta section with a non-empty arch label and a nonzero capture
  cycle, and — when the DRAM delta section is present — strictly ordered,
  disjoint, in-bounds delta runs that sum to the section's payload.

Exit status 0 on success; prints the first violation and exits 1 otherwise.
"""

import argparse
import json
import sys


def fail(message):
    print(f"check_trace: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_chrome_trace(path, require_kinds):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("displayTimeUnit") not in ("ns", "ms"):
        fail(f"{path}: missing/invalid displayTimeUnit")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    thread_names = {}
    process_named = False
    last_ts = None
    open_slices = {}
    seen_kinds = {}
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "process_name":
                process_named = True
            elif event.get("name") == "thread_name":
                thread_names[event["tid"]] = event["args"]["name"]
            continue
        if ph not in ("B", "E", "i", "C"):
            fail(f"{path}: event {i} has unknown phase {ph!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{path}: event {i} has no numeric ts")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: event {i} unsorted (ts {ts} < {last_ts})")
        last_ts = ts
        tid = event.get("tid")
        if tid not in thread_names:
            fail(f"{path}: event {i} uses unnamed tid {tid}")
        seen_kinds[event.get("name")] = seen_kinds.get(event.get("name"), 0) + 1
        if event.get("name") == "REF":
            args_obj = event.get("args")
            if not isinstance(args_obj, dict):
                fail(f"{path}: event {i} REF without args")
            for key in ("rank", "debt"):
                if not isinstance(args_obj.get(key), int):
                    fail(f"{path}: event {i} REF args lack integer {key!r}")
        if ph == "B":
            open_slices[tid] = open_slices.get(tid, 0) + 1
        elif ph == "E":
            if open_slices.get(tid, 0) <= 0:
                fail(f"{path}: event {i} ends a slice that never began")
            open_slices[tid] -= 1
    if not process_named:
        fail(f"{path}: no process_name metadata")
    for tid, depth in open_slices.items():
        if depth != 0:
            fail(f"{path}: {depth} unclosed slice(s) on tid {tid}")
    for kind in require_kinds:
        if seen_kinds.get(kind, 0) == 0:
            fail(f"{path}: required event kind {kind!r} never emitted "
                 f"(saw: {sorted(seen_kinds)})")
    print(f"check_trace: OK {path}: {sum(seen_kinds.values())} events, "
          f"{len(thread_names)} named tracks, kinds={sorted(seen_kinds)}")


def check_stats_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema_version") != 3:
        fail(f"{path}: schema_version != 3")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(f"{path}: runs missing or empty")
    for i, run in enumerate(runs):
        check_run_object(path, f"run {i}", run)
    print(f"check_trace: OK {path}: {len(runs)} run(s)")


SERVICE_ERROR_KINDS = {
    "queue-full", "bad-request", "no-such-job", "job-running",
    "job-pending", "job-done", "shutting-down",
}


def check_run_object(path, where, run):
    """One stats run object (shared by stats-JSON docs and result frames)."""
    for field in ("arch", "bench", "tag", "ok", "error", "config"):
        if field not in run:
            fail(f"{path}: {where} missing {field!r}")
    config = run["config"]
    if not isinstance(config, dict):
        fail(f"{path}: {where} config is not an object")
    # Schema v3: the DRAM hierarchy knobs are always present.
    for field in ("channels", "ranks", "mapping", "page_policy", "refresh"):
        if field not in config:
            fail(f"{path}: {where} config missing {field!r} (schema v3)")
    if run["ok"]:
        if run["error"]:
            fail(f"{path}: {where} ok but error set")
        counters = run.get("counters")
        if not isinstance(counters, dict) or not counters:
            fail(f"{path}: {where} ok but counters missing/empty")
        for name, value in counters.items():
            if not isinstance(value, int) or value < 0:
                fail(f"{path}: {where} counter {name!r} not a "
                     f"non-negative integer: {value!r}")
        if "metrics" not in run:
            fail(f"{path}: {where} ok but metrics missing")
    elif not run["error"]:
        fail(f"{path}: {where} failed but error empty")


def check_service_response(path, expect_cache_hits):
    with open(path, "r", encoding="utf-8") as fh:
        frames = [line for line in fh if line.strip()]
    if not frames:
        fail(f"{path}: no response frames")
    results = 0
    max_cache_hits = None
    for i, line in enumerate(frames, start=1):
        try:
            frame = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}: frame {i} is not JSON: {e}")
        if not isinstance(frame, dict):
            fail(f"{path}: frame {i} is not an object")
        if not isinstance(frame.get("ok"), bool):
            fail(f"{path}: frame {i} lacks a boolean 'ok'")
        kind = frame.get("type")
        if not isinstance(kind, str) or not kind:
            fail(f"{path}: frame {i} lacks a 'type'")
        if not frame["ok"]:
            if frame.get("error") not in SERVICE_ERROR_KINDS:
                fail(f"{path}: frame {i} error kind {frame.get('error')!r} "
                     f"is not a known typed kind")
            if not frame.get("message"):
                fail(f"{path}: frame {i} error without a message")
            continue
        if kind == "result":
            results += 1
            state = frame.get("state")
            if state not in ("done", "cancelled"):
                fail(f"{path}: frame {i} result in non-terminal "
                     f"state {state!r}")
            if state == "done":
                if not isinstance(frame.get("run_ok"), bool):
                    fail(f"{path}: frame {i} result lacks run_ok")
                if not isinstance(frame.get("cache_hit"), bool):
                    fail(f"{path}: frame {i} result lacks cache_hit")
                if not frame.get("csv", "").endswith("\n"):
                    fail(f"{path}: frame {i} csv is not a newline-terminated "
                         f"row")
                try:
                    run = json.loads(frame.get("stats", ""))
                except json.JSONDecodeError as e:
                    fail(f"{path}: frame {i} stats not parseable: {e}")
                check_run_object(path, f"frame {i} stats", run)
        elif kind == "status":
            cache = frame.get("cache")
            if not isinstance(cache, dict):
                fail(f"{path}: frame {i} status lacks the cache block")
            for counter in ("hits", "misses", "evictions", "entries",
                            "image_bytes"):
                if not isinstance(cache.get(counter), int):
                    fail(f"{path}: frame {i} cache counter {counter!r} "
                         f"missing or not an integer")
            hits = cache["hits"]
            if max_cache_hits is None or hits > max_cache_hits:
                max_cache_hits = hits
        elif kind == "submitted":
            if not isinstance(frame.get("id"), int) or frame["id"] < 1:
                fail(f"{path}: frame {i} submitted without a positive id")
    if expect_cache_hits is not None:
        if max_cache_hits is None:
            fail(f"{path}: --expect-cache-hits given but no status frame "
                 f"with cache counters found")
        if max_cache_hits < expect_cache_hits:
            fail(f"{path}: expected >= {expect_cache_hits} warm cache hits, "
                 f"status reports {max_cache_hits}")
    print(f"check_trace: OK {path}: {len(frames)} frame(s), "
          f"{results} result(s), cache_hits={max_cache_hits}")


# MLPSNAP constants (mirrors src/sim/snapshot.hpp).
SNAPSHOT_MAGIC = b"MLPSNAP\x00"
SNAPSHOT_VERSION = 3
SEC_META = 1
SEC_DRAM_DELTA = 3
SEC_STATS = 5


class SnapshotCursor:
    """Bounded little-endian reader over one section's payload."""

    def __init__(self, path, what, payload):
        self.path = path
        self.what = what
        self.buf = payload
        self.pos = 0

    def take(self, n):
        if len(self.buf) - self.pos < n:
            fail(f"{self.path}: truncated {self.what} section")
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self):
        return int.from_bytes(self.take(4), "little")

    def u64(self):
        return int.from_bytes(self.take(8), "little")

    def string(self):
        return self.take(self.u64()).decode("utf-8", errors="replace")

    def done(self):
        return self.pos == len(self.buf)


def check_snapshot(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(SNAPSHOT_MAGIC) + 4:
        fail(f"{path}: blob shorter than its header")
    if blob[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        fail(f"{path}: bad magic (not an MLPSNAP blob)")
    version = int.from_bytes(blob[8:12], "little")
    if version != SNAPSHOT_VERSION:
        fail(f"{path}: unsupported snapshot version {version}")

    # Section table: (u32 id, u64 length, payload), every length in bounds.
    sections = []
    pos = 12
    while pos < len(blob):
        if len(blob) - pos < 12:
            fail(f"{path}: truncated section header at offset {pos}")
        sec_id = int.from_bytes(blob[pos:pos + 4], "little")
        length = int.from_bytes(blob[pos + 4:pos + 12], "little")
        pos += 12
        if len(blob) - pos < length:
            fail(f"{path}: section {sec_id} length {length} exceeds the blob")
        sections.append((sec_id, blob[pos:pos + length]))
        pos += length
    if not sections:
        fail(f"{path}: no sections (a captured snapshot is never empty)")
    ids = [sec_id for sec_id, _ in sections]
    if len(ids) != len(set(ids)):
        fail(f"{path}: duplicate section ids {sorted(ids)}")
    if ids[0] != SEC_META:
        fail(f"{path}: first section has id {ids[0]}, not meta")
    if ids[-1] != SEC_STATS:
        fail(f"{path}: last section has id {ids[-1]}, not stats")

    meta = SnapshotCursor(path, "meta", sections[0][1])
    meta_version = meta.u32()
    cycle = meta.u64()
    meta.u64()  # now_ps
    arch_label = meta.string()
    meta.u32()  # warp_width
    image_bytes = meta.u64()
    meta.u64()  # fault_sequence
    if not meta.done():
        fail(f"{path}: meta section has {len(meta.buf) - meta.pos} "
             f"trailing byte(s)")
    if meta_version != SNAPSHOT_VERSION:
        fail(f"{path}: meta version {meta_version} != header {version}")
    if not arch_label:
        fail(f"{path}: meta arch label is empty")
    if cycle == 0:
        fail(f"{path}: capture cycle is 0 (captures happen at a quiescent "
             f"cycle >= 1)")

    delta_runs = 0
    delta_bytes = 0
    for sec_id, payload in sections[1:]:
        if sec_id != SEC_DRAM_DELTA:
            continue
        delta = SnapshotCursor(path, "dram-delta", payload)
        n = delta.u64()
        if n != image_bytes:
            fail(f"{path}: delta image size {n} != meta image_bytes "
                 f"{image_bytes}")
        delta_runs = delta.u64()
        prev_end = 0
        for k in range(delta_runs):
            offset = delta.u64()
            length = delta.u64()
            if length == 0:
                fail(f"{path}: delta run {k} is empty")
            if offset < prev_end:
                fail(f"{path}: delta run {k} at {offset} overlaps or "
                     f"reorders the previous run ending at {prev_end}")
            if offset > n or n - offset < length:
                fail(f"{path}: delta run {k} [{offset}, {offset + length}) "
                     f"out of bounds (image is {n} bytes)")
            delta.take(length)
            delta_bytes += length
            prev_end = offset + length
        if not delta.done():
            fail(f"{path}: dram-delta section has "
                 f"{len(delta.buf) - delta.pos} trailing byte(s)")
    print(f"check_trace: OK {path}: {len(sections)} section(s), "
          f"arch={arch_label}, cycle={cycle}, delta={delta_runs} run(s)/"
          f"{delta_bytes} byte(s)")


def check_interval_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        fail(f"{path}: empty timeline")
    header = lines[0].split(",")
    if header[:2] != ["cycle", "ps"]:
        fail(f"{path}: header must start cycle,ps")
    if header[-2:] != ["row_hit_rate", "ipc"]:
        fail(f"{path}: header must end row_hit_rate,ipc")
    last_cycle = -1
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            fail(f"{path}: line {i} has {len(cells)} cells, "
                 f"header has {len(header)}")
        cycle = int(cells[0])
        if cycle <= last_cycle:
            fail(f"{path}: line {i} cycle {cycle} not increasing")
        last_cycle = cycle
    print(f"check_trace: OK {path}: {len(lines) - 1} interval(s), "
          f"{len(header)} columns")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chrome-trace", action="append", default=[])
    parser.add_argument("--stats-json", action="append", default=[])
    parser.add_argument("--interval-csv", action="append", default=[])
    parser.add_argument("--service-response", action="append", default=[])
    parser.add_argument("--snapshot", action="append", default=[])
    parser.add_argument("--require-kinds", default="",
                        help="comma-separated event names that must appear "
                             "in every --chrome-trace file")
    parser.add_argument("--expect-cache-hits", type=int, default=None,
                        help="minimum warm-cache hit count that some status "
                             "frame in every --service-response file must "
                             "report")
    args = parser.parse_args()
    if not (args.chrome_trace or args.stats_json or args.interval_csv
            or args.service_response or args.snapshot):
        parser.error("nothing to check")
    kinds = [k for k in args.require_kinds.split(",") if k]
    for path in args.chrome_trace:
        check_chrome_trace(path, kinds)
    for path in args.stats_json:
        check_stats_json(path)
    for path in args.interval_csv:
        check_interval_csv(path)
    for path in args.service_response:
        check_service_response(path, args.expect_cache_hits)
    for path in args.snapshot:
        check_snapshot(path)


if __name__ == "__main__":
    main()
