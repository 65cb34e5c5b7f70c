"""The long-lived incremental analysis service.

A solve in this repo used to be a batch job: build a universe, load
facts, run to fixpoint, exit.  The DRed maintenance on
:class:`~repro.relations.fixpoint.FixpointEngine` turns a solved
fixpoint into a *standing query* — ``insert``/``retract`` update every
derived relation in milliseconds — and this module keeps those standing
queries alive between requests: an asyncio server hosting named
universes, each one a :class:`~repro.shell.RelationalShell` (so clients
evaluate expressions through the same planner/IR path the shell uses,
with the plan cache staying warm across requests) plus any number of
standing fixpoint queries.

Protocol (see ``docs/SERVICE.md``): newline-delimited JSON over TCP.
Each request is one object ``{"id": N, "op": OP, ...}``; each response
``{"id": N, "ok": true, "result": ...}`` or ``{"id": N, "ok": false,
"error": "..."}``.  Requests against the same universe serialize on a
per-universe lock; different universes interleave freely.

Run the server with ``python -m repro.service [--port P]`` (it prints
``SERVICE READY host:port`` once accepting), or from the shell with
``serve``; :class:`ServiceClient` is the blocking client the shell's
``connect`` command, the tests, and ``examples/service_smoke.py`` use.

Universes checkpoint/restore through the versioned ``JDDU`` container
(:meth:`Universe.save` / :meth:`Universe.load`), and relation payloads
shipped to clients go through a wire cache keyed on the (canonical)
diagram root, so repeated reads of an unchanged relation serialize
once.  Update requests surface the engine's ``incremental.*`` telemetry
spans and gauges when a telemetry session is enabled.
"""

from __future__ import annotations

import argparse
import asyncio
import io
import json
import socket
import threading
import weakref
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.relations import (
    ExecutionPolicy,
    FixpointEngine,
    JeddError,
    Relation,
)

__all__ = [
    "JeddService",
    "ServiceClient",
    "ServiceError",
    "ServiceHandle",
    "PROTOCOL_VERSION",
    "start_in_thread",
    "main",
]

#: Bumped on incompatible protocol changes; ``ping`` reports it so
#: clients can refuse servers they do not understand.
PROTOCOL_VERSION = 1


class ServiceError(Exception):
    """A request-level error: reported to the client, the server and
    the session survive."""


class _WireCache:
    """Serialized relation payloads keyed by canonical diagram root.

    Hash-consed diagrams make the root id a complete identity for a
    relation's content under a fixed schema, so tuple listings (and the
    binary encodings inside checkpoints) can be reused verbatim until
    the relation actually changes — the common case for a standing
    query read repeatedly between updates.  A root id is only an
    identity until the next garbage collection, which may free the root
    and hand its id to a new relation, so every entry is dropped when
    the manager of a cached relation collects (or is itself freed).
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int, tuple], object] = {}
        self._watched: "weakref.WeakSet" = weakref.WeakSet()
        self.hits = 0
        self.misses = 0

    def _key(self, rel: Relation, kind: str) -> Tuple[int, int, tuple]:
        manager = rel.universe.manager
        if manager not in self._watched:
            self._watched.add(manager)
            manager.gc_listeners.append(self._drop)
            weakref.finalize(manager, self._entries.clear)
        return (id(manager), rel.node, (kind,) + tuple(rel.schema.names()))

    def _drop(self, seconds: float, freed: int) -> None:
        self._entries.clear()

    def get(self, rel: Relation, kind: str):
        value = self._entries.get(self._key(rel, kind))
        if value is not None:
            self.hits += 1
        else:
            self.misses += 1
        return value

    def put(self, rel: Relation, kind: str, value) -> None:
        self._entries[self._key(rel, kind)] = value


class _UniverseSession:
    """One hosted universe: a shell (declarations, named relations, the
    warm planner) plus its standing fixpoint queries."""

    def __init__(self, name: str) -> None:
        from repro.shell import RelationalShell

        self.name = name
        self.out = io.StringIO()
        self.shell = RelationalShell(stdout=self.out)
        self.queries: Dict[str, FixpointEngine] = {}
        self.lock = asyncio.Lock()
        self.wire = _WireCache()
        self.requests = 0

    def drain_output(self) -> str:
        text = self.out.getvalue()
        self.out.seek(0)
        self.out.truncate(0)
        return text

    def publish_query(self, qname: str, engine: FixpointEngine) -> None:
        """Mirror a query's relations into the shell namespace (as
        ``QUERY_REL`` — underscore, so the names stay valid expression
        identifiers) for further analysis through the shell/IR
        evaluation path."""
        for rel_name, rel in engine._full.items():
            self.shell.relations[f"{qname}_{rel_name}"] = rel


class JeddService:
    """The asyncio request handler hosting named universes."""

    def __init__(self) -> None:
        self.sessions: Dict[str, _UniverseSession] = {}
        self._sessions_lock = asyncio.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()

    # -- session plumbing ----------------------------------------------

    async def _session(self, params, create: bool = False):
        name = params.get("universe", "default")
        if not isinstance(name, str) or not name:
            raise ServiceError("universe must be a non-empty string")
        async with self._sessions_lock:
            session = self.sessions.get(name)
            created = False
            if session is None:
                if not create:
                    raise ServiceError(f"no universe {name!r} (open it first)")
                session = _UniverseSession(name)
                self.sessions[name] = session
                created = True
        return session, created

    def _query(self, session: _UniverseSession, params) -> FixpointEngine:
        qname = params.get("query")
        engine = session.queries.get(qname)
        if engine is None:
            raise ServiceError(
                f"no standing query {qname!r} in universe {session.name!r}"
            )
        return engine

    @staticmethod
    def _tuples(rel: Relation, session: _UniverseSession) -> List[list]:
        cached = session.wire.get(rel, "tuples")
        if cached is None:
            cached = sorted(list(t) for t in rel.tuples())
            session.wire.put(rel, "tuples", cached)
        return cached

    # -- operations ----------------------------------------------------

    async def op_ping(self, params):
        return {"pong": True, "protocol": PROTOCOL_VERSION}

    async def op_universes(self, params):
        out = {}
        for name, session in sorted(self.sessions.items()):
            out[name] = {
                "finalized": session.shell.universe is not None,
                "relations": sorted(session.shell.relations),
                "queries": sorted(session.queries),
                "requests": session.requests,
            }
        return out

    async def op_open(self, params):
        session, created = await self._session(params, create=True)
        return {"universe": session.name, "created": created}

    async def op_shell(self, params):
        session, _ = await self._session(params, create=True)
        line = params.get("line")
        if not isinstance(line, str):
            raise ServiceError("shell op needs a 'line' string")
        async with session.lock:
            session.requests += 1
            session.shell.onecmd(line)
            return {"output": session.drain_output()}

    async def op_eval(self, params):
        session, _ = await self._session(params)
        expr = params.get("expr")
        if not isinstance(expr, str):
            raise ServiceError("eval op needs an 'expr' string")
        async with session.lock:
            session.requests += 1
            try:
                rel = session.shell._eval(expr)
            except JeddError as err:
                raise ServiceError(str(err)) from None
            return {
                "size": rel.size(),
                "nodes": rel.node_count(),
                "tuples": self._tuples(rel, session),
            }

    async def op_query_create(self, params):
        session, _ = await self._session(params)
        qname = params.get("query")
        if not isinstance(qname, str) or not qname:
            raise ServiceError("query.create needs a 'query' name")
        if qname in session.queries:
            raise ServiceError(f"standing query {qname!r} already exists")
        async with session.lock:
            session.requests += 1
            universe = session.shell.universe
            if universe is None:
                raise ServiceError("finalize the universe first")
            policy = params.get("policy")
            engine = FixpointEngine(
                universe, ExecutionPolicy.of(policy) if policy else None
            )
            for rel_name in params.get("facts", []):
                engine.fact(rel_name, session.shell._lookup(rel_name))
            for rel_name, seed_name in dict(
                params.get("relations", {})
            ).items():
                engine.relation(
                    rel_name, session.shell._lookup(seed_name)
                )
            for rel_name, filt_name in dict(
                params.get("filters", {})
            ).items():
                engine.filter(rel_name, session.shell._lookup(filt_name))
            for spec in params.get("rules", []):
                body = [
                    (atom[0], tuple(atom[1]) if isinstance(atom[1], list)
                     else dict(atom[1]))
                    for atom in spec["body"]
                ]
                engine.rule(spec["head"], tuple(spec["vars"]), body)
            solution = engine.solve()
            session.queries[qname] = engine
            session.publish_query(qname, engine)
            return {
                "query": qname,
                "iterations": engine.iterations,
                "sizes": {n: r.size() for n, r in solution.items()},
            }

    async def op_query_update(self, params):
        session, _ = await self._session(params)
        async with session.lock:
            session.requests += 1
            engine = self._query(session, params)
            inserts = {
                name: [tuple(row) for row in rows]
                for name, rows in dict(params.get("insert", {})).items()
            }
            retracts = {
                name: [tuple(row) for row in rows]
                for name, rows in dict(params.get("retract", {})).items()
            }
            solution = engine.update(inserts=inserts, retracts=retracts)
            session.publish_query(params["query"], engine)
            return {
                "stats": dict(engine.last_update_stats or {}),
                "sizes": {n: r.size() for n, r in solution.items()},
            }

    async def op_query_get(self, params):
        session, _ = await self._session(params)
        async with session.lock:
            session.requests += 1
            engine = self._query(session, params)
            rel_name = params.get("relation")
            try:
                rel = engine[rel_name]
            except KeyError:
                raise ServiceError(
                    f"query {params['query']!r} has no relation "
                    f"{rel_name!r}"
                ) from None
            rows = self._tuples(rel, session)
            limit = params.get("limit")
            return {
                "size": rel.size(),
                "tuples": rows if limit is None else rows[: int(limit)],
                "wire_cache": {
                    "hits": session.wire.hits,
                    "misses": session.wire.misses,
                },
            }

    async def op_save(self, params):
        session, _ = await self._session(params)
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError("save op needs a 'path'")
        async with session.lock:
            session.requests += 1
            universe = session.shell.universe
            if universe is None:
                raise ServiceError("finalize the universe first")
            count = universe.save(path, session.shell.relations)
            return {
                "path": path,
                "bytes": count,
                "relations": sorted(session.shell.relations),
            }

    async def op_load(self, params):
        session, _ = await self._session(params, create=True)
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError("load op needs a 'path'")
        async with session.lock:
            session.requests += 1
            session.shell.onecmd(f"load {path}")
            output = session.drain_output()
            if output.startswith("error:"):
                raise ServiceError(output.strip())
            return {
                "path": path,
                "relations": sorted(session.shell.relations),
            }

    async def op_telemetry(self, params):
        mode = params.get("mode", "status")
        if mode == "on":
            tel = telemetry.enable()
            for session in self.sessions.values():
                if session.shell.universe is not None:
                    tel.instrument_universe(session.shell.universe)
            return {"enabled": True}
        if mode == "off":
            telemetry.disable()
            return {"enabled": False}
        if mode == "status":
            return {"enabled": telemetry.is_enabled()}
        raise ServiceError("telemetry mode must be on|off|status")

    async def op_trace(self, params):
        path = params.get("path")
        if not isinstance(path, str) or not path:
            raise ServiceError("trace op needs a 'path'")
        tel = telemetry.active()
        if not tel.enabled:
            raise ServiceError("telemetry is off; send telemetry on first")
        count = tel.write_chrome_trace(path, process_name="repro-service")
        return {"path": path, "events": count}

    async def op_metrics(self, params):
        tel = telemetry.active()
        if not tel.enabled:
            raise ServiceError("telemetry is off; send telemetry on first")
        return {"metrics": tel.metrics_snapshot()}

    async def op_shutdown(self, params):
        self._shutdown.set()
        return {"stopping": True}

    # -- server loop ---------------------------------------------------

    async def dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = getattr(
            self, "op_" + str(op).replace(".", "_").replace("-", "_"), None
        )
        if not isinstance(op, str) or handler is None:
            raise ServiceError(f"unknown op {op!r}")
        return await handler(request)

    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                rid = None
                try:
                    request = json.loads(line.decode("utf-8"))
                    rid = request.get("id")
                    result = await self.dispatch(request)
                    response = {"id": rid, "ok": True, "result": result}
                except (ServiceError, JeddError) as err:
                    response = {"id": rid, "ok": False, "error": str(err)}
                except asyncio.CancelledError:
                    raise
                except Exception as err:  # server boundary: report, survive
                    response = {
                        "id": rid,
                        "ok": False,
                        "error": f"{type(err).__name__}: {err}",
                    }
                writer.write(
                    json.dumps(response, sort_keys=True).encode("utf-8")
                    + b"\n"
                )
                await writer.drain()
                if self._shutdown.is_set():
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0, announce=None
    ) -> None:
        """Accept requests until a ``shutdown`` op arrives."""
        self._server = await asyncio.start_server(self._handle, host, port)
        bound = self._server.sockets[0].getsockname()
        if announce is not None:
            announce(bound[0], bound[1])
        async with self._server:
            await self._shutdown.wait()

    def bound_address(self) -> Tuple[str, int]:
        if self._server is None or not self._server.sockets:
            raise ServiceError("service is not listening")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]


class ServiceHandle:
    """A service running on a background thread (the shell's ``serve``)."""

    def __init__(self, host: str, port: int, thread, loop, service) -> None:
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop
        self.service = service

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self.service._shutdown.set)
        self._thread.join(timeout=5)


def start_in_thread(
    host: str = "127.0.0.1", port: int = 0
) -> ServiceHandle:
    """Boot a :class:`JeddService` on a daemon thread; returns a handle
    with the bound address and a ``stop()`` method."""
    service = JeddService()
    ready = threading.Event()
    bound: List[Tuple[str, int]] = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        holder.append(loop)

        def announce(h, p):
            bound.append((h, p))
            ready.set()

        try:
            loop.run_until_complete(service.serve(host, port, announce))
        finally:
            loop.close()

    holder: List[asyncio.AbstractEventLoop] = []
    thread = threading.Thread(target=run, name="repro-service", daemon=True)
    thread.start()
    if not ready.wait(timeout=10):
        raise ServiceError("service failed to start within 10s")
    h, p = bound[0]
    return ServiceHandle(h, p, thread, holder[0], service)


class ServiceClient:
    """Blocking JSON-lines client for :class:`JeddService`.

    Raises :class:`ServiceError` when the server reports a failed
    request; the connection stays usable afterwards.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    def request(self, op: str, **params):
        self._next_id += 1
        payload = {"id": self._next_id, "op": op}
        payload.update(params)
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ServiceError("service closed the connection")
        response = json.loads(line.decode("utf-8"))
        if not response.get("ok"):
            raise ServiceError(response.get("error", "unknown error"))
        return response.get("result")

    # Convenience wrappers for the common session verbs.

    def ping(self):
        return self.request("ping")

    def open(self, universe: str = "default"):
        return self.request("open", universe=universe)

    def shell(self, universe: str, line: str) -> str:
        return self.request("shell", universe=universe, line=line)["output"]

    def script(self, universe: str, lines) -> str:
        return "".join(self.shell(universe, line) for line in lines)

    def eval(self, universe: str, expr: str):
        return self.request("eval", universe=universe, expr=expr)

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def main(argv=None) -> None:
    """Entry point for ``python -m repro.service``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run the incremental analysis service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 picks a free one; the bound address is "
        "announced on stdout as 'SERVICE READY host:port')",
    )
    args = parser.parse_args(argv)
    service = JeddService()

    def announce(host, port):
        print(f"SERVICE READY {host}:{port}", flush=True)

    asyncio.run(service.serve(args.host, args.port, announce))


if __name__ == "__main__":  # pragma: no cover
    main()
