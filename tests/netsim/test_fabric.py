"""Tests for the Internet fabric: delivery, borders, drops, taps."""

import pickle
from ipaddress import IPv4Address, IPv6Address, ip_address

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.autonomous_system import AutonomousSystem, BorderVerdict
from repro.netsim.fabric import (
    DROP_FAULT_BLACKHOLE,
    DROP_FAULT_LOSS,
    DROP_FAULT_HIJACK,
    DROP_FAULT_OUTAGE,
    DROP_FAULT_STUCK,
    DROP_LOSS,
    DROP_NO_HOST,
    DROP_NO_ROUTE,
    DROP_REASONS,
    DROP_UNROUTED_ASN,
    Fabric,
    Host,
)
from repro.netsim.determinism import stable_fraction
from repro.netsim.packet import Packet, TCPFlag, Transport


class Sink(Host):
    """Records every packet delivered to it."""

    def __init__(self, name, asn):
        super().__init__(name, asn)
        self.received = []

    def handle_packet(self, packet):
        self.received.append(packet)


def build_two_as_fabric(**as_b_kwargs):
    """AS 1 (no OSAV, sender side) and AS 2 (policy under test)."""
    fabric = Fabric(seed=3)
    as_a = AutonomousSystem(1, osav=False, dsav=True)
    as_a.add_prefix("20.0.0.0/16")
    as_b = AutonomousSystem(2, **as_b_kwargs)
    as_b.add_prefix("30.0.0.0/16")
    fabric.add_system(as_a)
    fabric.add_system(as_b)
    sender = Sink("sender", 1)
    fabric.attach(sender, ip_address("20.0.0.1"))
    receiver = Sink("receiver", 2)
    fabric.attach(receiver, ip_address("30.0.0.1"))
    return fabric, sender, receiver


def test_plain_delivery():
    fabric, sender, receiver = build_two_as_fabric(dsav=False)
    sender.send(
        Packet(
            src=ip_address("20.0.0.1"),
            dst=ip_address("30.0.0.1"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert len(receiver.received) == 1
    assert receiver.received[0].hops == 1
    assert fabric.delivered_count == 1


def test_dsav_drop_counted():
    fabric, sender, receiver = build_two_as_fabric(dsav=True)
    sender.send(
        Packet(
            src=ip_address("30.0.5.5"),  # claims to be inside AS 2
            dst=ip_address("30.0.0.1"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert receiver.received == []
    assert fabric.drop_counts["drop-dsav"] == 1


def test_dsav_absent_admits_spoof():
    fabric, sender, receiver = build_two_as_fabric(dsav=False)
    sender.send(
        Packet(
            src=ip_address("30.0.5.5"),
            dst=ip_address("30.0.0.1"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert len(receiver.received) == 1


def test_osav_blocks_at_origin():
    fabric = Fabric()
    as_a = AutonomousSystem(1, osav=True)
    as_a.add_prefix("20.0.0.0/16")
    as_b = AutonomousSystem(2, dsav=False)
    as_b.add_prefix("30.0.0.0/16")
    fabric.add_system(as_a)
    fabric.add_system(as_b)
    sender = Sink("sender", 1)
    fabric.attach(sender, ip_address("20.0.0.1"))
    receiver = Sink("receiver", 2)
    fabric.attach(receiver, ip_address("30.0.0.1"))
    sender.send(
        Packet(
            src=ip_address("30.0.5.5"),
            dst=ip_address("30.0.0.1"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert receiver.received == []
    assert fabric.drop_counts["drop-osav"] == 1


def test_intra_as_skips_borders():
    fabric = Fabric()
    system = AutonomousSystem(1, osav=True, dsav=True)
    system.add_prefix("20.0.0.0/16")
    fabric.add_system(system)
    a = Sink("a", 1)
    b = Sink("b", 1)
    fabric.attach(a, ip_address("20.0.0.1"))
    fabric.attach(b, ip_address("20.0.0.2"))
    # Even an internal-looking spoof passes: DSAV is a border mechanism.
    a.send(
        Packet(
            src=ip_address("20.0.9.9"),
            dst=ip_address("20.0.0.2"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert len(b.received) == 1
    assert b.received[0].hops == 0


def test_no_route_drop():
    fabric, sender, _ = build_two_as_fabric(dsav=False)
    sender.send(
        Packet(
            src=ip_address("20.0.0.1"),
            dst=ip_address("99.0.0.1"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert fabric.drop_counts["no-route"] == 1


def test_no_host_drop():
    fabric, sender, _ = build_two_as_fabric(dsav=False)
    sender.send(
        Packet(
            src=ip_address("20.0.0.1"),
            dst=ip_address("30.0.0.99"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert fabric.drop_counts["no-host"] == 1


def test_tap_sees_delivered_packets_only():
    fabric, sender, receiver = build_two_as_fabric(dsav=True)
    seen = []
    fabric.add_tap(lambda packet, host: seen.append((packet, host.name)))
    ok = Packet(
        src=ip_address("20.0.0.1"),
        dst=ip_address("30.0.0.1"),
        sport=1,
        dport=2,
        payload=b"ok",
    )
    blocked = Packet(
        src=ip_address("30.0.5.5"),
        dst=ip_address("30.0.0.1"),
        sport=1,
        dport=2,
        payload=b"spoof",
    )
    sender.send(ok)
    sender.send(blocked)
    fabric.run()
    assert [name for _, name in seen] == ["receiver"]


def test_loss_rate_drops_deterministically():
    results = []
    for _ in range(2):
        fabric, sender, receiver = build_two_as_fabric(dsav=False)
        fabric.loss_rate = 0.5
        for i in range(50):
            sender.send(
                Packet(
                    src=ip_address("20.0.0.1"),
                    dst=ip_address("30.0.0.1"),
                    sport=1000 + i,
                    dport=2,
                    payload=b"x",
                )
            )
        fabric.run()
        results.append((len(receiver.received), fabric.drop_counts["loss"]))
    assert results[0] == results[1]
    delivered, lost = results[0]
    assert delivered + lost == 50
    assert 10 < delivered < 40  # roughly half


def test_loss_roll_is_content_keyed_not_stream_positional():
    """A packet's loss fate must not depend on traffic sent before it.

    This is the property the sharded scan pipeline rests on: a shard
    sends a subset of the full campaign's packets, and each one must
    live or die exactly as it would have amid the full traffic.
    """
    outcomes = []
    for preceding in (0, 17):
        fabric, sender, receiver = build_two_as_fabric(dsav=False)
        fabric.loss_rate = 0.5
        for i in range(preceding):
            sender.send(
                Packet(
                    src=ip_address("20.0.0.1"),
                    dst=ip_address("30.0.0.1"),
                    sport=40000 + i,
                    dport=2,
                    payload=b"warmup",
                )
            )
        fabric.run()
        received_before = len(receiver.received)
        sender.send(
            Packet(
                src=ip_address("20.0.0.1"),
                dst=ip_address("30.0.0.1"),
                sport=777,
                dport=2,
                payload=b"probe-under-test",
            )
        )
        fabric.run()
        outcomes.append(len(receiver.received) - received_before)
    assert outcomes[0] == outcomes[1]


@st.composite
def packets(draw):
    version = draw(st.sampled_from([4, 6]))
    bits = 32 if version == 4 else 128
    make = IPv4Address if version == 4 else IPv6Address
    return Packet(
        src=make(draw(st.integers(0, 2**bits - 1))),
        dst=make(draw(st.integers(0, 2**bits - 1))),
        sport=draw(st.integers(0, 65535)),
        dport=draw(st.integers(0, 65535)),
        payload=draw(st.binary(max_size=64)),
        transport=draw(st.sampled_from(list(Transport))),
        tcp_flags=draw(st.sampled_from(
            [TCPFlag.NONE, TCPFlag.SYN, TCPFlag.SYN | TCPFlag.ACK]
        )),
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-(2**70), 2**70), packet=packets())
def test_loss_roll_matches_stable_fraction(seed, packet):
    """The primed loss roll draws exactly the documented key."""
    fabric = Fabric(seed=seed)
    expected = stable_fraction(
        seed,
        "loss",
        int(packet.src),
        int(packet.dst),
        packet.sport,
        packet.dport,
        packet.transport.value,
        int(packet.tcp_flags),
        packet.payload,
    )
    assert fabric._loss_roll(packet) == expected
    assert fabric._loss_roll(packet) == expected  # the primed state again


def test_fabric_that_rolled_loss_pickles_and_round_trips():
    fabric, sender, receiver = build_two_as_fabric(dsav=False)
    fabric.loss_rate = 0.5
    probe = Packet(
        src=ip_address("20.0.0.1"),
        dst=ip_address("30.0.0.1"),
        sport=4242,
        dport=2,
        payload=b"roll",
    )
    roll = fabric._loss_roll(probe)
    assert fabric._loss_prefix is not None  # primed by the roll
    loaded = pickle.loads(pickle.dumps(fabric))
    assert loaded._loss_prefix is None
    assert loaded._loss_roll(probe) == roll
    for i in range(20):
        loaded.host_at(ip_address("20.0.0.1")).send(
            Packet(
                src=ip_address("20.0.0.1"),
                dst=ip_address("30.0.0.1"),
                sport=1000 + i,
                dport=2,
                payload=b"x",
            )
        )
    loaded.run()
    assert (
        len(loaded.host_at(ip_address("30.0.0.1")).received)
        + loaded.drop_counts["loss"]
        == 20
    )


def test_record_drops_keeps_packets():
    fabric, sender, _ = build_two_as_fabric(dsav=True)
    fabric.record_drops = True
    sender.send(
        Packet(
            src=ip_address("30.0.5.5"),
            dst=ip_address("30.0.0.1"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert len(fabric.dropped) == 1
    assert fabric.dropped[0].reason == "drop-dsav"
    assert fabric.dropped[0].asn == 2


def test_duplicate_attach_rejected():
    fabric, sender, receiver = build_two_as_fabric(dsav=False)
    with pytest.raises(ValueError):
        fabric.attach(Sink("dup", 2), ip_address("30.0.0.1"))


def test_unknown_asn_attach_rejected():
    fabric, *_ = build_two_as_fabric(dsav=False)
    with pytest.raises(ValueError):
        fabric.attach(Sink("x", 99), ip_address("20.0.0.9"))


def test_bind_address():
    fabric, sender, receiver = build_two_as_fabric(dsav=False)
    extra = ip_address("30.0.0.7")
    fabric.bind_address(receiver, extra)
    assert fabric.host_at(extra) is receiver
    assert extra in receiver.addresses
    with pytest.raises(ValueError):
        fabric.bind_address(receiver, extra)


def test_latency_deterministic_per_pair():
    fabric, *_ = build_two_as_fabric(dsav=False)
    assert fabric._latency(1, 2) == fabric._latency(2, 1)
    assert fabric._latency(1, 1) < fabric._latency(1, 2)


def test_send_unattached_host_raises():
    host = Sink("floating", 1)
    with pytest.raises(RuntimeError):
        host.send(
            Packet(
                src=ip_address("20.0.0.1"),
                dst=ip_address("30.0.0.1"),
                sport=1,
                dport=2,
                payload=b"",
            )
        )


def test_duplicate_asn_rejected():
    fabric = Fabric()
    fabric.add_system(AutonomousSystem(5))
    with pytest.raises(ValueError):
        fabric.add_system(AutonomousSystem(5))


def test_drop_reasons_are_exhaustive():
    """Every drop path names a registered constant, and vice versa.

    Border-filter verdicts share their string values with the fabric's
    constants, so a new ``BorderVerdict`` member (or a new drop path in
    ``Fabric``) cannot ship without updating ``DROP_REASONS``.
    """
    border_reasons = {
        verdict.value
        for verdict in BorderVerdict
        if verdict is not BorderVerdict.ACCEPT
    }
    assert border_reasons <= DROP_REASONS
    assert DROP_REASONS == border_reasons | {
        DROP_LOSS, DROP_NO_ROUTE, DROP_UNROUTED_ASN, DROP_NO_HOST,
        DROP_FAULT_LOSS, DROP_FAULT_BLACKHOLE, DROP_FAULT_OUTAGE,
        DROP_FAULT_HIJACK, DROP_FAULT_STUCK,
    }


def test_unregistered_drop_reason_rejected():
    fabric, sender, _ = build_two_as_fabric(dsav=False)
    packet = Packet(
        src=ip_address("20.0.0.1"), dst=ip_address("30.0.0.1"),
        sport=1, dport=2, payload=b"x",
    )
    with pytest.raises(AssertionError, match="unregistered drop reason"):
        fabric._drop(packet, "made-up-reason", None)


def test_unrouted_asn_drop_distinct_from_no_route():
    """A route whose origin AS was never registered is its own reason."""
    fabric, sender, _ = build_two_as_fabric(dsav=False)
    fabric.routes.announce("99.0.0.0/16", 77)  # no add_system(77)
    sender.send(
        Packet(
            src=ip_address("20.0.0.1"),
            dst=ip_address("99.0.0.1"),
            sport=1,
            dport=2,
            payload=b"x",
        )
    )
    fabric.run()
    assert fabric.drop_counts[DROP_UNROUTED_ASN] == 1
    assert fabric.drop_counts[DROP_NO_ROUTE] == 0


def test_bound_metrics_mirror_drop_counts():
    from repro.obs.metrics import MetricsRegistry

    fabric, sender, receiver = build_two_as_fabric(dsav=True)
    registry = MetricsRegistry()
    fabric.bind_metrics(registry)
    sender.send(  # delivered
        Packet(
            src=ip_address("20.0.0.1"), dst=ip_address("30.0.0.1"),
            sport=1, dport=2, payload=b"ok",
        )
    )
    sender.send(  # DSAV drop at AS 2's border
        Packet(
            src=ip_address("30.0.5.5"), dst=ip_address("30.0.0.1"),
            sport=1, dport=2, payload=b"spoof",
        )
    )
    sender.send(  # no route at all
        Packet(
            src=ip_address("20.0.0.1"), dst=ip_address("99.0.0.1"),
            sport=1, dport=2, payload=b"lost",
        )
    )
    fabric.run()
    delivered = registry.get("fabric_delivered_total")
    drops = registry.get("fabric_drops_total")
    assert delivered.value() == fabric.delivered_count == 1
    assert drops.value(("drop-dsav", "2")) == 1
    assert drops.value((DROP_NO_ROUTE, "")) == 1
    total_dropped = sum(value for _, value in drops.samples())
    assert total_dropped == sum(fabric.drop_counts.values())


def test_send_unregistered_origin_asn_raises_clearly():
    fabric, sender, _receiver = build_two_as_fabric(dsav=False)
    # A host whose ASN drifted after attach (e.g. scenario-builder bug)
    # must produce a diagnosis, not a bare KeyError from the AS table.
    sender.asn = 99
    with pytest.raises(ValueError, match="ASN 99.*never registered"):
        sender.send(
            Packet(
                src=ip_address("20.0.0.1"),
                dst=ip_address("30.0.0.1"),
                sport=1,
                dport=2,
                payload=b"",
            )
        )
