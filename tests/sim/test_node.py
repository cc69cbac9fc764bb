"""Tests for the simulated node."""

from repro.sim import Message, Node


def test_compute_occupies_cores(env):
    node = Node(env, "n", cores=2)
    finished = []

    def worker(env, name):
        yield node.compute(1.0)
        finished.append((env.now, name))

    for i in range(4):
        env.process(worker(env, i))
    env.run()
    # 4 jobs of 1 s on 2 cores: finish at t=1 (x2) and t=2 (x2)
    times = sorted(t for t, _ in finished)
    assert times == [1.0, 1.0, 2.0, 2.0]


def test_disk_is_serialized(env):
    node = Node(env, "n")
    finished = []

    def writer(env):
        yield node.disk_write(0.5)
        finished.append(env.now)

    env.process(writer(env))
    env.process(writer(env))
    env.run()
    assert finished == [0.5, 1.0]


def test_subscribe_routes_by_kind(env):
    node = Node(env, "n")
    special = node.subscribe("special")
    node.enqueue(Message(src="a", dst="n", kind="special", payload=1))
    node.enqueue(Message(src="a", dst="n", kind="other", payload=2))
    assert len(special) == 1
    assert len(node.mailbox) == 1


def test_subscribe_same_kind_returns_same_inbox(env):
    node = Node(env, "n")
    assert node.subscribe("x") is node.subscribe("x")


def test_crash_and_recover_flags(env):
    node = Node(env, "n")
    assert not node.crashed
    node.crash()
    assert node.crashed
    node.recover()
    assert not node.crashed


def test_nic_capacity_parallelism(env):
    node = Node(env, "n", nic_capacity=4)
    finished = []

    def sender(env):
        yield node.nic_out.serve_event(1.0)
        finished.append(env.now)

    for _ in range(4):
        env.process(sender(env))
    env.run()
    assert finished == [1.0] * 4  # all four concurrently
