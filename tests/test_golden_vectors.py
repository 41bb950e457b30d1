"""Golden wire-format vectors.

These freeze the binary formats (protocol messages, descriptors,
certificates, chains, filter programs). A refactor that changes any byte
on the wire breaks interoperability between independently deployed
endpoints, controllers, and rendezvous servers — these tests make such a
change loud and deliberate instead of silent.

Vectors were generated from the deterministic test keys
(``KeyPair.from_name``), so they are stable across runs and machines.
"""

import pytest

from repro.crypto.certificate import (
    CERT_EXPERIMENT,
    Certificate,
    Restrictions,
)
from repro.crypto.chain import CertificateChain, build_delegated_chain
from repro.crypto.keys import KeyPair
from repro.filtervm import FilterProgram, builtins
from repro.proto.messages import (
    Auth,
    AuthFail,
    AuthOk,
    Bye,
    CaptureRecord,
    Hello,
    Interrupted,
    MRead,
    MWrite,
    NCap,
    NClose,
    NOpen,
    NPoll,
    NSend,
    PollData,
    RdzExperiment,
    RdzHeartbeat,
    RdzPublish,
    RdzPublishResult,
    RdzSubscribe,
    Result,
    Resumed,
    SessionEnd,
    Yield,
    decode_message,
)
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.util.byteio import ByteReader, ByteWriter

GOLDEN = {
    "hello": "01010007000365703000201111111111111111111111111111111111111111111111111111111111111111",
    "auth": "0200000004444553430200000007434841494e2d410000000443482d4203",
    "authok": "030000002a00010000",
    "authfail": "0400106d6f6e69746f722072656a6563746564020018726563763a206f6f622d7061636b65742061742070632034",
    "nopen": "0a00000001000000020100500a00000101bb",
    "nclose": "0b0000000200000002",
    "nsend": "0c000000030000000000038d7eac224d150000000900017061796c6f6164",
    "ncap": "0d000000040000000180000000000000000000000c435046562d70726f6772616d",
    "npoll": "0e0000000500000000000003e7",
    "mread": "0f000000060000001800000008",
    "mwrite": "1000000007000008000000000773637261746368",
    "result": "140000000803000000020102",
    "polldata": "15000000090000000400000000000007d00000000100000000000000000000004d00000003706b74",
    "polldata_two_records": "150000000a0000000100000100000000000000000200000000000000000000004d00000003706b740000001fffffffffffffffff00000000",
    "interrupted": "1e09",
    "resumed": "1f",
    "sessionend": "200009707265656d70746564",
    "yield": "21",
    "bye": "22",
    "rdzpublish": "28000000044445534300000008505542434841494e000200000002453100000003452d32",
    "rdzpublishresult": "290100086163636570746564",
    "rdzsubscribe": "2a00020020010101010101010101010101010101010101010101010101010101010101010100200202020202020202020202020202020202020202020202020202020202020202",
    "rdzexperiment": "2b000000044445534300000005434841494e",
    "rdzheartbeat": "2c000665702de4b99dffffffff",
    "capture_record": "0000000300000000075bcd1500000003726177",
    "descriptor": "58440006676f6c64656e0a0000011b58000968747470733a2f2f78002007fac07a34d5fa456a54391447496debf290aae0209f927f2d815df4514e6d85",
    "certificate": "504c0102f8ef3793de9ada6bb7108804a571c7843e60ee232ded62ef15db1b964d519770fafa533da4b24e7487c1547a72efb56c16cd8cd5f9488c728492c8a3e43d953701050000000103f5ecff42de7b9a27c1a7530cd4b68651ffde6bf6424fb038553ace1df52aca4f2e0e08055f42bd4342ad9e731a37b8f23a31e5fd801da9120ab548a1606ea80e",
    "chain": "0200000085504c0101f8ef3793de9ada6bb7108804a571c7843e60ee232ded62ef15db1b964d51977007fac07a34d5fa456a54391447496debf290aae0209f927f2d815df4514e6d85002251ff094fefa4becddbbf17eabc872a70a9eb4ddc1120d715775126ad8a2b9370c3209023ae74f87b4378e4f682a01b6615b228f21dd2739221609ad0b1cb0900000085504c010207fac07a34d5fa456a54391447496debf290aae0209f927f2d815df4514e6d85fafa533da4b24e7487c1547a72efb56c16cd8cd5f9488c728492c8a3e43d95370070c809d454d48ed50e0c0852955bc767d8c6d79b367859a7e1d5d62f50bc6bd095e4a35cc061dff529b465e966a730190ee17240daf17a4c3768c1254070ae080200202bf249099fe6fe63f0bedf3f9c26beb8f111a09d9bc98a531fc192666fdef79b0020671ffaae8e0471bbfa7dedbd523e716bcd2bde6d04cad778d473fe184d980dc7",
    "filter_program": "43504656010000000001000472656376000000000200020000000901000000000000000951010000000000000001304100000000000000070100000000000000014401000000000000000044",
}


def _operator():
    return KeyPair.from_name("golden-operator")


def _experimenter():
    return KeyPair.from_name("golden-experimenter")


def _descriptor():
    return ExperimentDescriptor(
        name="golden",
        controller_addr=0x0A000001,
        controller_port=7000,
        url="https://x",
        experimenter_key_id=_experimenter().key_id,
    )


MESSAGE_CASES = {
    "hello": Hello(version=1, caps=7, endpoint_name="ep0",
                   descriptor_hash=b"\x11" * 32),
    "auth": Auth(descriptor=b"DESC", chains=(b"CHAIN-A", b"CH-B"), priority=3),
    "authok": AuthOk(session_id=42, buffer_limit=65536),
    "authfail": AuthFail(reason="monitor rejected", code=2,
                         report="recv: oob-packet at pc 4"),
    "nopen": NOpen(reqid=1, sktid=2, proto=1, locport=80,
                   remaddr=0x0A000001, remport=443),
    "nclose": NClose(reqid=2, sktid=2),
    "nsend": NSend(reqid=3, sktid=0, time=1_000_000_123_456_789,
                   data=b"\x00\x01payload"),
    "ncap": NCap(reqid=4, sktid=1, time=2**63, filt=b"CPFV-program"),
    "npoll": NPoll(reqid=5, time=999),
    "mread": MRead(reqid=6, memaddr=24, bytecnt=8),
    "mwrite": MWrite(reqid=7, memaddr=2048, data=b"scratch"),
    "result": Result(reqid=8, status=3, payload=b"\x01\x02"),
    "polldata": PollData(
        reqid=9, dropped_packets=4, dropped_bytes=2000,
        records=(CaptureRecord(sktid=0, timestamp=77, data=b"pkt"),),
    ),
    "polldata_two_records": PollData(
        reqid=10, dropped_packets=1, dropped_bytes=2**40,
        records=(
            CaptureRecord(sktid=0, timestamp=77, data=b"pkt"),
            CaptureRecord(sktid=31, timestamp=2**64 - 1, data=b""),
        ),
    ),
    "interrupted": Interrupted(by_priority=9),
    "resumed": Resumed(),
    "sessionend": SessionEnd(reason="preempted"),
    "yield": Yield(),
    "bye": Bye(),
    "rdzpublish": RdzPublish(descriptor=b"DESC", chain=b"PUBCHAIN",
                             delivery_chains=(b"E1", b"E-2")),
    "rdzpublishresult": RdzPublishResult(ok=True, reason="accepted"),
    "rdzsubscribe": RdzSubscribe(channels=(b"\x01" * 32, b"\x02" * 32)),
    "rdzexperiment": RdzExperiment(descriptor=b"DESC", chain=b"CHAIN"),
    "rdzheartbeat": RdzHeartbeat(endpoint_name="ep-九", seq=2**32 - 1),
}


class TestMessageGoldenVectors:
    @pytest.mark.parametrize("name", sorted(MESSAGE_CASES))
    def test_encoding_frozen(self, name):
        assert MESSAGE_CASES[name].encode().hex() == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(MESSAGE_CASES))
    def test_golden_bytes_decode(self, name):
        assert decode_message(bytes.fromhex(GOLDEN[name])) == MESSAGE_CASES[name]

    def test_capture_record_frozen(self):
        # the one sub-record: PollData carries it, it has no TYPE of its own
        record = CaptureRecord(sktid=3, timestamp=123456789, data=b"raw")
        writer = ByteWriter()
        record.encode_body(writer)
        assert writer.getvalue().hex() == GOLDEN["capture_record"]
        reader = ByteReader(bytes.fromhex(GOLDEN["capture_record"]))
        assert CaptureRecord.decode_body(reader) == record


class TestCryptoGoldenVectors:
    def test_descriptor_frozen(self):
        assert _descriptor().encode().hex() == GOLDEN["descriptor"]
        decoded = ExperimentDescriptor.decode(bytes.fromhex(GOLDEN["descriptor"]))
        assert decoded == _descriptor()

    def test_certificate_frozen(self):
        cert = Certificate.issue(
            _operator(), CERT_EXPERIMENT, _descriptor().hash(),
            Restrictions(max_priority=3),
        )
        assert cert.encode().hex() == GOLDEN["certificate"]
        decoded = Certificate.decode(bytes.fromhex(GOLDEN["certificate"]))
        assert decoded.verify_with(_operator().public_key)

    def test_chain_frozen_and_verifies(self):
        chain = build_delegated_chain(
            _operator(), _experimenter(), _descriptor().hash()
        )
        assert chain.encode().hex() == GOLDEN["chain"]
        decoded = CertificateChain.decode(bytes.fromhex(GOLDEN["chain"]))
        result = decoded.verify(
            {_operator().key_id}, _descriptor().hash(), now=0.0
        )
        assert result.depth == 2


class TestFilterProgramGoldenVector:
    def test_program_frozen(self):
        program = builtins.capture_protocol(1)
        assert program.encode().hex() == GOLDEN["filter_program"]
        decoded = FilterProgram.decode(bytes.fromhex(GOLDEN["filter_program"]))
        assert decoded.code == program.code
