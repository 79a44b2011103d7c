"""Timeline export: the event log as Chrome trace-event / Perfetto JSON.

The exporter turns the ring buffer of :class:`~repro.obs.log.ObsLog`
events into the JSON object format both ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_ load directly, so a whole 16-node
run becomes visually debuggable: one process lane per node with a cache
thread and a directory thread, plus a synthetic ``network`` process with
``messages`` (in-flight sends as duration slices), ``faults`` (drops,
duplications, reorders), and ``retries`` (timeout re-issues, poisons)
threads.

Time mapping: the simulator's integer nanoseconds become fractional
trace-event microseconds (``ts = ns / 1000``), preserving full
resolution; ``displayTimeUnit`` is set to ``ns``.

The emitted document is validated in tests against the checked-in JSON
schema at ``docs/trace_event.schema.json`` (see :mod:`repro.obs.schema`);
:func:`validate_trace_events` is a fast structural pre-flight the CLI
runs before writing, so a refactor that breaks the format fails loudly
instead of producing a file Perfetto rejects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import ReproError
from .log import ObsEvent
from .spans import Transaction

#: Thread ids on node process lanes.
TID_CACHE = 0
TID_DIRECTORY = 1
TID_PRED_CACHE = 2
TID_PRED_DIRECTORY = 3

#: Thread ids on the synthetic network process lane.
TID_NET_MESSAGES = 0
TID_NET_FAULTS = 1
TID_NET_RETRIES = 2

_NODE_THREAD_NAMES = {
    TID_CACHE: "cache",
    TID_DIRECTORY: "directory",
    TID_PRED_CACHE: "predictor (cache)",
    TID_PRED_DIRECTORY: "predictor (directory)",
}

_NET_THREAD_NAMES = {
    TID_NET_MESSAGES: "messages",
    TID_NET_FAULTS: "faults",
    TID_NET_RETRIES: "retries",
}

#: Event-log names routed to the network faults thread.
_FAULT_NAMES = frozenset({"drop", "dup", "reorder"})
#: Event-log names routed to the network retries thread.
_RETRY_NAMES = frozenset({"retry", "poison", "inval-retry"})


def _role_tid(role: object, base: int = TID_CACHE) -> int:
    return base + (1 if str(role) == "directory" else 0)


def _meta(pid: int, name: str, value: object, tid: int = 0) -> dict:
    event: dict = {"ph": "M", "pid": pid, "tid": tid, "name": name}
    if name in ("process_name", "thread_name"):
        event["args"] = {"name": value}
    else:
        event["args"] = {"sort_index": value}
    return event


def export_trace_events(
    events: Iterable[ObsEvent],
    n_nodes: int,
    manifest: Optional[dict] = None,
    dropped: int = 0,
    spans: Optional[Iterable[Transaction]] = None,
) -> dict:
    """Render log ``events`` as a Chrome trace-event JSON object.

    ``n_nodes`` sizes the per-node lanes; ``manifest`` (see
    :func:`repro.obs.manifest.build_manifest`) and the ring's ``dropped``
    count land in ``otherData`` so the artifact is self-describing.

    ``spans`` (reconstructed transactions from
    :func:`repro.obs.spans.build_transactions`) additionally emits, per
    closed transaction, an async ``b``/``e`` pair on the requester's
    lane spanning open to close, and one ``s``/``f`` flow pair per wire
    transfer -- Perfetto then draws arrows hopping across node lanes,
    making a transaction's causal chain (request, invalidation round,
    forward, response, retries) followable by eye.
    """
    net_pid = n_nodes
    trace_events: List[dict] = []
    used_threads: Dict[Tuple[int, int], None] = {}

    def add(
        pid: int,
        tid: int,
        ph: str,
        ts_ns: int,
        name: str,
        cat: str,
        args: Optional[dict] = None,
        dur_ns: Optional[int] = None,
    ) -> None:
        used_threads[(pid, tid)] = None
        event: dict = {
            "pid": pid,
            "tid": tid,
            "ph": ph,
            "ts": ts_ns / 1000.0,
            "name": name,
            "cat": cat,
        }
        if ph == "i":
            event["s"] = "t"  # thread-scoped instant
        if dur_ns is not None:
            event["dur"] = dur_ns / 1000.0
        if args:
            event["args"] = args
        trace_events.append(event)

    for time_ns, category, name, node, block, args in events:
        args = args or {}
        block_hex = f"0x{block:x}"
        if category == "net":
            if name == "send":
                add(
                    net_pid,
                    TID_NET_MESSAGES,
                    "X",
                    time_ns,
                    f"{args.get('mtype', 'msg')} {block_hex}",
                    "net",
                    {
                        "src": node,
                        "dst": args.get("dst"),
                        "block": block_hex,
                    },
                    dur_ns=int(args.get("delay_ns", 0)),
                )
            elif name == "deliver":
                add(
                    node,
                    _role_tid(args.get("role", "cache")),
                    "i",
                    time_ns,
                    f"{args.get('mtype', 'msg')} {block_hex}",
                    "net",
                    {"src": args.get("src"), "block": block_hex},
                )
            elif name in _FAULT_NAMES:
                add(
                    net_pid,
                    TID_NET_FAULTS,
                    "i",
                    time_ns,
                    f"{name} {block_hex}",
                    "fault",
                    {"src": node, "block": block_hex, **args},
                )
        elif category == "proto":
            if name in _RETRY_NAMES:
                add(
                    net_pid,
                    TID_NET_RETRIES,
                    "i",
                    time_ns,
                    f"{name} P{node} {block_hex}",
                    "proto",
                    {"node": node, "block": block_hex, **args},
                )
            else:
                tid = (
                    TID_DIRECTORY if name.startswith("dir") else TID_CACHE
                )
                add(
                    node,
                    tid,
                    "i",
                    time_ns,
                    f"{block_hex} {args.get('from', '?')}→"
                    f"{args.get('to', '?')}",
                    "proto",
                    {"block": block_hex, **args},
                )
        elif category == "pred":
            add(
                node,
                _role_tid(args.get("role", "cache"), TID_PRED_CACHE),
                "i",
                time_ns,
                f"{'hit' if args.get('hit') else 'miss'} {block_hex}",
                "pred",
                {"block": block_hex, **args},
            )
        else:  # unknown categories still land somewhere visible
            add(node if 0 <= node < n_nodes else net_pid, TID_CACHE, "i",
                time_ns, f"{category}.{name}", category, args)

    if spans is not None:
        for txn in spans:
            if not txn.closed:
                continue
            span_id = f"txn-{txn.txn}"
            span_name = f"txn {txn.kind} 0x{txn.block:x}"
            for ph, ts_ns in (("b", txn.t_open), ("e", txn.t_close)):
                used_threads[(txn.requester, TID_CACHE)] = None
                trace_events.append(
                    {
                        "pid": txn.requester,
                        "tid": TID_CACHE,
                        "ph": ph,
                        "ts": ts_ns / 1000.0,
                        "id": span_id,
                        "name": span_name,
                        "cat": "txn",
                        "args": {
                            "home": txn.home,
                            "block": f"0x{txn.block:x}",
                        },
                    }
                )
            for index, x in enumerate(txn.xfers):
                flow_id = f"{span_id}-x{index}"
                flow_name = f"txn {txn.txn} hop"
                for ph, pid, ts_ns in (
                    ("s", x.src, x.send_ns),
                    ("f", x.dst, x.arrive_ns),
                ):
                    used_threads[(pid, TID_CACHE)] = None
                    trace_events.append(
                        {
                            "pid": pid,
                            "tid": TID_CACHE,
                            "ph": ph,
                            "ts": ts_ns / 1000.0,
                            "id": flow_id,
                            "name": flow_name,
                            "cat": "txn",
                        }
                    )

    metadata: List[dict] = []
    for node in range(n_nodes):
        if not any(pid == node for pid, _ in used_threads):
            continue
        metadata.append(_meta(node, "process_name", f"P{node}"))
        metadata.append(_meta(node, "process_sort_index", node))
        for tid in sorted(t for p, t in used_threads if p == node):
            metadata.append(
                _meta(node, "thread_name", _NODE_THREAD_NAMES[tid], tid)
            )
    if any(pid == net_pid for pid, _ in used_threads):
        metadata.append(_meta(net_pid, "process_name", "network"))
        metadata.append(_meta(net_pid, "process_sort_index", net_pid))
        for tid in sorted(t for p, t in used_threads if p == net_pid):
            metadata.append(
                _meta(net_pid, "thread_name", _NET_THREAD_NAMES[tid], tid)
            )

    other: dict = {"events": len(trace_events), "dropped_events": dropped}
    if manifest is not None:
        other["manifest"] = manifest
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def validate_trace_events(payload: object) -> List[str]:
    """Structural pre-flight check; returns a list of problems (empty = ok).

    This is the fast in-process validation the CLI runs before writing;
    the full checked-in JSON schema (``docs/trace_event.schema.json``)
    is enforced in tests and the CI observability job via
    :mod:`repro.obs.schema`.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        errors.append("traceEvents must be a list")
        events = []
    if not isinstance(payload.get("displayTimeUnit"), str):
        errors.append("displayTimeUnit must be a string")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("M", "i", "X", "b", "e", "s", "f"):
            errors.append(f"{where}: bad phase {ph!r}")
        if ph in ("b", "e", "s", "f") and not isinstance(
            event.get("id"), str
        ):
            errors.append(f"{where}: async/flow phase needs a string id")
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                errors.append(f"{where}: {field} must be an integer")
        if not isinstance(event.get("name"), str):
            errors.append(f"{where}: name must be a string")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: dur must be a non-negative number")
        if len(errors) >= 20:
            errors.append("... (more errors suppressed)")
            break
    return errors


def save_trace_events(
    payload: dict, path: Union[str, Path]
) -> Path:
    """Validate, then atomically write a timeline document as JSON.

    A document that fails :func:`validate_trace_events` raises
    :class:`~repro.errors.ReproError` naming the first five problems,
    and nothing is written.  Parent directories are created as needed; a
    crash mid-write leaves the previous file (or no file), never a
    truncated document.
    """
    from ..ioutil import atomic_write

    errors = validate_trace_events(payload)
    if errors:
        raise ReproError(
            "timeline export failed validation: " + "; ".join(errors[:5])
        )
    with atomic_write(path) as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return Path(path)
