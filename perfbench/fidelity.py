"""The paper fidelity gate: virtual-time anchors that must not move.

These are simulated-time results of the paper's evaluation, reproduced
exactly by the repository's experiments E1, E2, E3 and E9.  A host-side
optimisation must never change them, so any difference fails the run.
"""

from __future__ import annotations

#: name -> expected virtual microseconds.
ANCHORS = {
    "E1 null RPC, plain (us)": 16120,
    "E1 null RPC, instrumented (us)": 16520,
    "E2 null RPC under the packet monitor (us)": 32120,
    "E3 first peer halted after (us)": 3600,
    "E3 second peer halted after (us)": 7100,
    "E9 agent round trip, read_var (us)": 7300,
}

SPIN = "proc main()\n  while true do\n    sleep(1000)\n  end\nend"

WORK = """proc work(n: int) returns int
  sleep(2000)
  return n
end
proc main()
  var i: int := 0
  while true do
    i := i + 1
    var r: int := work(i)
  end
end
"""


def null_rpc_us(debug_support: bool, monitor: bool = False) -> int:
    """Virtual round trip of one null RPC between two nodes."""
    from repro import Cluster
    from repro.rpc.runtime import remote_call

    cluster = Cluster(names=["client", "server"], seed=0)
    cluster.rpc("client").debug_support = debug_support
    cluster.rpc("server").debug_support = debug_support
    cluster.rpc("server").export_native("svc", {"op": lambda ctx: None})
    if monitor:
        from repro.rpc.monitor import PacketMonitor

        PacketMonitor(cluster.ring, cluster.rpc("client"))
        PacketMonitor(cluster.ring, cluster.rpc("server"))
    out = {}

    def caller(node):
        start = node.clock.real_now()
        yield from remote_call(node.rpc, "svc", "op", [])
        out["latency"] = node.clock.real_now() - start

    node = cluster.node("client")
    node.spawn(caller(node), name="caller")
    cluster.run()
    return out["latency"]


def halt_offsets_us(n_nodes: int = 3) -> list:
    """When each peer halts after a halt request, relative to the first."""
    from repro import MS, US, Cluster, Pilgrim

    names = [f"n{i}" for i in range(n_nodes)] + ["debugger"]
    cluster = Cluster(names=names, seed=0)
    for i in range(n_nodes):
        image = cluster.load_program(SPIN, f"n{i}")
        cluster.spawn_vm(f"n{i}", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect(*[f"n{i}" for i in range(n_nodes)])
    world = cluster.world
    dbg.home.station.send(
        0, "agent",
        {"kind": "request", "session": dbg.session_id, "seq": 10_000,
         "op": "halt", "args": {}, "reply_to": dbg.home.node_id},
        kind="agent_request",
    )
    halted = {}
    deadline = world.now + 200 * MS
    while len(halted) < n_nodes and world.now < deadline:
        world.run(until=world.now + 100 * US)
        for i in range(n_nodes):
            if i not in halted and cluster.node(f"n{i}").agent.halted:
                halted[i] = world.now
    first = halted.get(0, 0)
    return sorted(t - first for i, t in halted.items() if i != 0)


def agent_round_trip_us() -> int:
    """Virtual time of one ``read_var`` request/reply with the agent."""
    from repro import Cluster, Pilgrim

    cluster = Cluster(names=["app", "debugger"], seed=0)
    image = cluster.load_program(WORK, "app")
    cluster.spawn_vm("app", image, "main")
    dbg = Pilgrim(cluster, home="debugger")
    dbg.connect("app")
    dbg.set_breakpoint("app", "app", line=2)
    hit = dbg.wait_for_breakpoint()
    start = cluster.world.now
    dbg.read_var("app", hit["pid"], "n")
    return cluster.world.now - start


def measure() -> dict:
    """The anchors as this checkout reproduces them."""
    offsets = halt_offsets_us()
    return {
        "E1 null RPC, plain (us)": null_rpc_us(False),
        "E1 null RPC, instrumented (us)": null_rpc_us(True),
        "E2 null RPC under the packet monitor (us)":
            null_rpc_us(False, monitor=True),
        "E3 first peer halted after (us)": offsets[0] if offsets else None,
        "E3 second peer halted after (us)":
            offsets[1] if len(offsets) > 1 else None,
        "E9 agent round trip, read_var (us)": agent_round_trip_us(),
    }


def check() -> list:
    """Messages for every anchor that moved (empty when all match)."""
    measured = measure()
    return [f"{name}: expected {want}, measured {measured[name]}"
            for name, want in ANCHORS.items() if measured[name] != want]
