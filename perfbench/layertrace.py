"""Layer tracing for the benchmark's traced run.

Spans are recorded from outside the program: :func:`install` replaces the
public entry points of each layer (and every engine event callback) with
thin wrappers that open a span on entry and close it on exit. Nothing
under ``src/`` knows it is being traced.

- A span carries a name, start, end, parent and the id of the customer
  call it belongs to. Spans live in flat ``array`` columns so a fleet pass
  (about 300k engine events) costs tens of bytes per span, and they stay
  in memory until :meth:`Recorder.snapshot` hands them out at the end.
- Module-level functions are patched *where they are looked up*: many
  modules do ``from repro.crypto.signatures import sign``, so every loaded
  ``repro`` module whose global is the original function gets the
  wrapper. Methods are patched on their class, before any deployment is
  built, so bound methods stored at construction (network handlers) are
  wrapped too.
- Engine callbacks are wrapped in :meth:`Engine.schedule` and attributed
  to the module that defines the callback (``repro.xen.scheduler`` ->
  ``xen``), so the event loop's time splits by owning layer.
- A span's self time is its duration minus the time its direct children
  cover. Summed per layer, self times plus the unattributed remainder
  (wall time outside every root span) equal the traced wall time.

Under the forked shard executor the wrappers are installed before the
plane forks, so each worker records its own spans into its inherited
copy of :data:`RECORDER`; :func:`collect_worker` is sent to the workers
through the executor's ``apply`` command to fetch them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from typing import Callable, Optional

#: module prefix -> layer, most specific first
LAYER_PREFIXES = (
    ("repro.common.procpool", "shard"),
    ("repro.sim", "sim"),
    ("repro.xen", "xen"),
    ("repro.crypto", "crypto"),
    ("repro.network", "network"),
    ("repro.controller", "controller"),
    ("repro.attest_server", "attest_server"),
    ("repro.server", "server"),
    ("repro.monitors", "monitors"),
    ("repro.tpm", "tpm"),
    ("repro.policy", "policy"),
    ("repro.telemetry", "telemetry"),
    ("repro.shard", "shard"),
    ("repro.cloud", "cloud"),
)

#: every layer a span can be attributed to; ``cloud`` is the customer
#: side (the benchmark's root spans), ``other`` any module not listed
LAYERS = (
    "sim", "xen", "crypto", "network", "controller", "attest_server",
    "server", "monitors", "tpm", "policy", "telemetry", "shard", "cloud",
    "other",
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer owning a module, by longest listed prefix."""
    if module:
        for prefix, layer in LAYER_PREFIXES:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class Recorder:
    """In-memory span store plus named counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        """Drop every span and counter (keeps the name table)."""
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.call = array("q")
        self.name = array("i")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.call_id = 0
        self.run_depth = 0
        self.max_nesting = 0
        self.stats0: dict[str, int] = {}

    def intern(self, name: str) -> int:
        """Index of a span name in the name table."""
        index = self._name_index.get(name)
        if index is None:
            index = len(self.names)
            self.names.append(name)
            self._name_index[name] = index
        return index

    def open(self, name_index: int) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.call.append(self.call_id)
        self.name.append(name_index)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End a span (spans close in LIFO order)."""
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        """Bump a named counter."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def snapshot(self) -> dict:
        """Spans and counters as plain picklable copies.

        Spans still open (end 0) are copied as such; :func:`summarize`
        skips them.
        """
        from repro.crypto import fastpath

        stats = fastpath.stats()
        return {
            "pid": os.getpid(),
            "names": list(self.names),
            "start": array("d", self.start),
            "end": array("d", self.end),
            "parent": array("q", self.parent),
            "call": array("q", self.call),
            "name": array("i", self.name),
            "counts": dict(self.counts),
            "fastpath": {key: value - self.stats0.get(key, 0)
                         for key, value in stats.items()},
            "max_nesting": self.max_nesting,
        }


#: the process's recorder; forked shard workers inherit their own copy
RECORDER = Recorder()


def _span_wrapper(name: str, fn: Callable, reentrant: bool = True,
                  on_result: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` so each call (while recording) is one span.

    ``reentrant=False`` records only the outermost call of a recursive
    function (``encode`` recurses through its own module global).
    ``on_result(args, result)`` counts work done by the call.
    """
    rec = RECORDER
    name_index = rec.intern(name)
    depth = [0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled or (not reentrant and depth[0]):
            return fn(*args, **kwargs)
        depth[0] += 1
        index = rec.open(name_index)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
            depth[0] -= 1
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _event_wrapper(callback: Callable, cache: dict) -> Callable:
    """Wrap one engine callback in a span named after its owning layer."""
    func = getattr(callback, "__func__", callback)
    func = getattr(func, "func", func)  # functools.partial
    # lambdas are created per call; their code object is shared
    key = getattr(func, "__code__", func)
    name_index = cache.get(key)
    if name_index is None:
        module = getattr(func, "__module__", None)
        name_index = RECORDER.intern("event:" + layer_of_module(module))
        cache[key] = name_index
    rec = RECORDER

    def fire(*args):
        if not rec.enabled:
            return callback(*args)
        index = rec.open(name_index)
        try:
            return callback(*args)
        finally:
            rec.close(index)

    return fire


def _patch_function(module_name: str, attr: str, wrapper_for: Callable) -> None:
    """Replace a function in every loaded ``repro`` module that binds it."""
    original = getattr(sys.modules[module_name], attr)
    wrapper = wrapper_for(original)
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper


def _patch_method(cls: type, attr: str, wrapper_for: Callable) -> None:
    setattr(cls, attr, wrapper_for(cls.__dict__[attr]))


def _count_bytes(key: str, pick: Callable) -> Callable:
    def on_result(args, result):
        RECORDER.count(key, pick(args, result))
    return on_result


def install() -> None:
    """Patch every traced layer entry point (idempotent per process).

    Call before any deployment is built and before a shard plane forks.
    Wrappers cost one flag test while :attr:`Recorder.enabled` is off.
    """
    if getattr(install, "done", False):
        return
    install.done = True

    import multiprocessing.connection as mpc

    import repro.cloud  # noqa: F401  (load every module that binds a target)
    import repro.shard  # noqa: F401
    from repro.attest_server.server import AttestationServer
    from repro.common import procpool
    from repro.controller.api import CloudController
    from repro.controller.attest_service import AttestService
    from repro.crypto.keypool import KeyPool
    from repro.monitors.monitor_module import MonitorModule
    from repro.network.network import Network
    from repro.network.secure_channel import SecureEndpoint
    from repro.policy.scheduler import PolicyScheduler
    from repro.server.node import CloudServer
    from repro.shard import parallel
    from repro.sim.engine import Engine
    from repro.telemetry.hub import Telemetry
    from repro.telemetry.metrics import Counter, Gauge, Histogram
    from repro.telemetry.tracer import Tracer
    from repro.tpm.trust_module import TrustModule

    rec = RECORDER

    def span(name, **kw):
        return lambda fn: _span_wrapper(name, fn, **kw)

    # crypto (rsa, signatures, symmetric, encoding, hashing, keypool)
    _patch_function("repro.crypto.rsa", "generate_keypair", span("crypto.keygen"))
    _patch_function("repro.crypto.signatures", "sign", span("crypto.sign"))
    _patch_function("repro.crypto.signatures", "verify", span("crypto.verify"))
    _patch_function("repro.crypto.symmetric", "seal", span("crypto.seal_open"))
    _patch_function("repro.crypto.symmetric", "open_sealed", span("crypto.seal_open"))
    _patch_function("repro.crypto.encoding", "encode", span(
        "crypto.encode", reentrant=False,
        on_result=_count_bytes("crypto.encode_bytes", lambda a, r: len(r))))
    _patch_function("repro.crypto.encoding", "decode", span("crypto.encode"))
    _patch_function("repro.crypto.hashing", "sha256", span("crypto.hash"))

    def keypool_take(fn):
        wrapped = _span_wrapper("crypto.keypool_take", fn)

        def take(self):
            if rec.enabled:
                rec.count("crypto.keypool_hits" if self._pending
                          else "crypto.keypool_misses")
            return wrapped(self)
        return take

    _patch_method(KeyPool, "take", keypool_take)

    # network
    _patch_method(SecureEndpoint, "call", span("network.call"))
    _patch_method(SecureEndpoint, "_handshake", span("network.handshake"))
    _patch_method(Network, "rpc", span(
        "network.rpc",
        on_result=_count_bytes("network.bytes",
                               lambda a, r: len(a[3]) + len(r))))

    # controller and attestation server
    _patch_method(CloudController, "_handle", span("controller.handle"))
    _patch_method(AttestService, "attest_many", span(
        "controller.attest_many",
        on_result=_count_bytes("controller.batch_entries",
                               lambda a, r: len(a[1]))))
    _patch_method(AttestationServer, "_handle", span("attest_server.handle"))
    _patch_method(AttestationServer, "attest", span("attest_server.attest"))
    _patch_method(AttestationServer, "attest_batch", span("attest_server.attest_batch"))

    # cloud server, monitor module, trust module
    _patch_method(CloudServer, "_dispatch", span("server.dispatch"))
    _patch_method(CloudServer, "_handle_measure", span("server.measure"))
    _patch_method(CloudServer, "_handle_measure_batch", span("server.measure"))

    def monitor_begin(fn):
        wrapped = _span_wrapper("monitors.begin", fn)

        def begin(self, request):
            if rec.enabled and request.window_ms > 0:
                rec.count("monitors.windows")
            return wrapped(self, request)
        return begin

    _patch_method(MonitorModule, "begin", monitor_begin)
    _patch_method(MonitorModule, "collect", span("monitors.collect"))
    _patch_method(MonitorModule, "collect_many", span("monitors.collect"))
    _patch_method(TrustModule, "new_attestation_session", span("tpm.session"))
    _patch_method(TrustModule, "sign_with_session", span("tpm.quote"))

    # policy (its tick is an engine event, attributed below)
    _patch_method(PolicyScheduler, "apply", span("policy.apply"))

    # telemetry write path
    _patch_method(Telemetry, "observe_event", span("telemetry.event"))
    _patch_method(Tracer, "span", span("telemetry.span_start"))
    _patch_method(Tracer, "_finish", span("telemetry.span_finish"))
    _patch_method(Counter, "inc", span("telemetry.metric"))
    _patch_method(Gauge, "set", span("telemetry.metric"))
    _patch_method(Histogram, "observe", span("telemetry.metric"))

    # shard executor: coordinator-side IPC, worker-side command roots
    _patch_method(parallel.ForkedShardExecutor, "submit", span("shard.submit"))
    _patch_method(procpool.PersistentWorker, "result", span("shard.ipc_wait"))
    _patch_function("repro.shard.parallel", "_replay_delta", span("shard.replay"))
    _patch_function("repro.shard.parallel", "perform", span("shard.perform"))

    original_recv = mpc.Connection._recv_bytes

    def recv_bytes(self, maxsize=None):
        buf = original_recv(self, maxsize)
        if rec.enabled:
            rec.count("shard.recv_bytes", buf.getbuffer().nbytes)
        return buf

    mpc.Connection._recv_bytes = recv_bytes

    # sim: every event callback becomes a span of its owning layer, and
    # run_until tracks how deeply it is re-entered
    original_schedule = Engine.schedule
    cache: dict = {}

    def schedule(self, delay, callback, *args):
        return original_schedule(self, delay, _event_wrapper(callback, cache), *args)

    Engine.schedule = schedule
    run_until = _span_wrapper("sim.run_until", Engine.run_until)

    def nested_run_until(self, end_time):
        rec.run_depth += 1
        if rec.run_depth > rec.max_nesting:
            rec.max_nesting = rec.run_depth
        try:
            return run_until(self, end_time)
        finally:
            rec.run_depth -= 1

    Engine.run_until = nested_run_until


def start() -> None:
    """Clear the recorder and start recording in this process."""
    from repro.crypto import fastpath

    RECORDER.reset()
    RECORDER.stats0 = fastpath.stats()
    RECORDER.enabled = True


def stop() -> dict:
    """Stop recording; return this process's snapshot."""
    RECORDER.enabled = False
    return RECORDER.snapshot()


def start_worker(shard) -> int:
    """Executor ``apply`` body: start recording inside a shard worker."""
    start()
    return os.getpid()


def collect_worker(shard) -> dict:
    """Executor ``apply`` body: a shard worker's snapshot.

    The ``shard.perform`` span of this very command is still open and
    is dropped by :func:`summarize` (its end is 0).
    """
    return stop()


def root(name: str) -> "_Root":
    """Context manager for one customer call: a root span, fresh call id."""
    return _Root(RECORDER.intern("cloud." + name))


class _Root:
    __slots__ = ("_name", "_index")

    def __init__(self, name_index: int):
        self._name = name_index
        self._index = -1

    def __enter__(self):
        rec = RECORDER
        if rec.enabled:
            rec.call_id += 1
            self._index = rec.open(self._name)
        return self

    def __exit__(self, *exc):
        if self._index >= 0:
            RECORDER.close(self._index)


def layer_of_span(name: str) -> str:
    """The layer a span name belongs to (``event:xen`` -> ``xen``)."""
    if name.startswith("event:"):
        return name[len("event:"):]
    return name.split(".", 1)[0]


def summarize(snapshot: dict) -> dict:
    """Per-name and per-layer totals for one process's spans.

    Returns ``{"by_name": {name: [count, inclusive_s, self_s]},
    "by_layer": {layer: self_s}, "root_s": s, "spans": n}``, where
    ``root_s`` is the time covered by parentless spans.
    """
    names = snapshot["names"]
    start, end = snapshot["start"], snapshot["end"]
    parent, name = snapshot["parent"], snapshot["name"]
    n = len(start)
    child_time = [0.0] * n
    closed = [end[i] > 0.0 for i in range(n)]
    for i in range(n):
        p = parent[i]
        if closed[i] and p >= 0:
            child_time[p] += end[i] - start[i]
    by_name: dict[str, list] = {}
    by_layer = {layer: 0.0 for layer in LAYERS}
    root_s = 0.0
    spans = 0
    for i in range(n):
        if not closed[i]:
            continue
        spans += 1
        duration = end[i] - start[i]
        own = duration - child_time[i]
        label = names[name[i]]
        entry = by_name.setdefault(label, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        layer = layer_of_span(label)
        by_layer[layer if layer in by_layer else "other"] += own
        if parent[i] < 0:
            root_s += duration
    return {"by_name": by_name, "by_layer": by_layer, "root_s": root_s,
            "spans": spans}
