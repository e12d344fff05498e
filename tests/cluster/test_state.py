"""Property tests for the array-backed kernel state (``cluster/state.py``).

The Node/Executor objects are thin views over structured-array slots;
these tests drive random sequences of the mutations the simulator
performs — spawns, progress, finishes, node failures and recoveries,
straggler onset, autoscale joins, compaction — and assert after every
step that the object API and the array columns describe the same world,
in both directions (writes through views land in the arrays; array rows
answer exactly what recomputing from the objects answers).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.spark.executor import Executor, ExecutorState

OPS = ("spawn", "advance", "finish", "interrupt", "node_down", "node_up",
       "straggle", "join", "compact")


def check_round_trip(cluster: Cluster) -> None:
    """Arrays and object views must agree on every live row."""
    state = cluster.state
    state.refresh_dirty()
    nodes = state.nodes_view()
    assert state.n_nodes == len(cluster.nodes)
    assert len(state.node_objs) == len(state.node_ids) == state.n_nodes
    # The back-map holds weak references; the cluster owns the nodes.
    for slot, node_ref in enumerate(state.node_objs):
        node = node_ref()
        assert node is cluster.nodes[slot]
        row = nodes[slot]
        assert node._state is state and node._slot == slot
        assert state.node_ids[slot] == node.node_id
        assert float(row["ram_gb"]) == node.ram_gb
        assert bool(row["up"]) == node.is_up
        assert float(row["speed"]) == node.speed_factor
        active = [e for e in node.executors if e.is_active]
        assert int(row["n_active"]) == len(active)
        # The cached aggregates are the exact left-to-right sums (not
        # ``sum()``, which compensates float rounding from Python 3.12).
        reserved_memory = reserved_cpu = 0.0
        for e in active:
            reserved_memory += e.memory_budget_gb
            reserved_cpu += e.cpu_demand
        assert float(row["reserved_mem_gb"]) == reserved_memory
        assert float(row["reserved_cpu"]) == reserved_cpu
        assert node.reserved_memory_gb == float(row["reserved_mem_gb"])
    ex = state.execs_view()
    live_ids = []
    for slot, executor in enumerate(state.exec_objs):
        row = ex[slot]
        if executor is None:  # evicted, awaiting compaction
            assert not row["alive"] and not row["active"]
            continue
        live_ids.append(executor.executor_id)
        assert executor._state is state and executor._slot == slot
        assert bool(row["alive"])
        host = state.node_objs[int(row["node_slot"])]()
        assert host is executor._node
        assert executor in host.executors
        # Scalar round-trips: the properties read these same cells.
        assert float(row["assigned_gb"]) == executor.assigned_gb
        assert float(row["processed_gb"]) == executor.processed_gb
        assert float(row["budget_gb"]) == executor.memory_budget_gb
        assert float(row["cpu_demand"]) == executor.cpu_demand
        assert bool(row["active"]) == executor.is_active
    # Slot order is spawn order — the invariant every vectorized
    # reduction relies on for bit-exact iteration-order parity.
    assert live_ids == sorted(live_ids)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_views_round_trip_under_random_churn(data):
    cluster = Cluster.homogeneous(3)
    spawned = 0
    removed: list[tuple[Executor, float, float]] = []

    for _ in range(data.draw(st.integers(10, 60), label="n_ops")):
        op = data.draw(st.sampled_from(OPS), label="op")
        live = [e for n in cluster.nodes for e in n.executors]
        running = [e for e in live if e.state is ExecutorState.RUNNING]
        if op == "spawn":
            node = data.draw(st.sampled_from(cluster.nodes), label="node")
            executor = Executor(
                app_name=f"app{spawned % 5}", node_id=node.node_id,
                memory_budget_gb=data.draw(
                    st.floats(0.5, 8.0, allow_nan=False), label="budget"),
                assigned_gb=data.draw(
                    st.floats(0.0, 20.0, allow_nan=False), label="assigned"),
                cpu_demand=data.draw(
                    st.floats(0.05, 0.5, allow_nan=False), label="cpu"))
            node.add_executor(executor)
            spawned += 1
        elif op == "advance" and running:
            executor = data.draw(st.sampled_from(running), label="victim")
            executor.advance(data.draw(st.floats(0.0, 10.0, allow_nan=False),
                                       label="progress"))
        elif op == "finish" and live:
            executor = data.draw(st.sampled_from(live), label="victim")
            before = (executor.assigned_gb, executor.processed_gb)
            executor.state = ExecutorState.FINISHED
            executor._node.remove_executor(executor)
            removed.append((executor, *before))
        elif op == "interrupt" and running:
            executor = data.draw(st.sampled_from(running), label="victim")
            executor.interrupt()
            executor._node.remove_executor(executor)
            removed.append((executor, executor.assigned_gb,
                            executor.processed_gb))
        elif op == "node_down":
            data.draw(st.sampled_from(cluster.nodes), label="node").mark_down()
        elif op == "node_up":
            data.draw(st.sampled_from(cluster.nodes), label="node").mark_up()
        elif op == "straggle":
            node = data.draw(st.sampled_from(cluster.nodes), label="node")
            node.set_speed(data.draw(st.floats(0.1, 1.0, allow_nan=False,
                                               exclude_min=False),
                                     label="speed"))
        elif op == "join":
            cluster.add_node()
        elif op == "compact":
            cluster.state.compact()
        check_round_trip(cluster)

    # Evicted executors answer from their own scalars again: the values
    # the arrays held at eviction survive (the application layer sums
    # processed_gb over finished executors too).
    for executor, assigned, processed in removed:
        assert executor._state is None and executor._slot is None
        assert executor.assigned_gb == assigned
        assert executor.processed_gb == processed


def test_compaction_triggers_and_preserves_order():
    """A long spawn/finish churn crosses the compaction threshold."""
    cluster = Cluster.homogeneous(2)
    state = cluster.state
    node = cluster.nodes[0]
    survivors = []
    for i in range(200):
        executor = Executor(app_name=f"app{i % 3}", node_id=node.node_id,
                            memory_budget_gb=1.0, assigned_gb=5.0,
                            cpu_demand=0.1)
        node.add_executor(executor)
        if i % 4 == 0:
            survivors.append(executor)
        else:
            executor.state = ExecutorState.FINISHED
            node.remove_executor(executor)
    assert state._n_dead < 150  # adoption-time maybe_compact() fired
    state.compact()
    assert state._n_dead == 0
    assert state.n_execs == len(survivors)
    assert [e.executor_id for e in state.exec_objs] == sorted(
        e.executor_id for e in survivors)
    check_round_trip(cluster)
