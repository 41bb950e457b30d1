"""Security property tests: tampering anywhere must be rejected."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.chain import CertificateChain, ChainError, build_delegated_chain
from repro.crypto.keys import KeyPair
from repro.endpoint.auth import AuthError, verify_auth
from repro.proto.constants import PROTOCOL_VERSION
from repro.proto.messages import Auth, Hello
from repro.rendezvous.descriptor import ExperimentDescriptor
from repro.util.byteio import DecodeError

OPERATOR = KeyPair.from_name("sec-operator")
EXPERIMENTER = KeyPair.from_name("sec-experimenter")
DESCRIPTOR = ExperimentDescriptor(
    name="sec", controller_addr=1, controller_port=2, url="u",
    experimenter_key_id=EXPERIMENTER.key_id,
)
CHAIN_BYTES = build_delegated_chain(
    OPERATOR, EXPERIMENTER, DESCRIPTOR.hash()
).encode()


class TestChainTampering:
    @settings(max_examples=120, deadline=None)
    @given(
        position=st.integers(min_value=0, max_value=len(CHAIN_BYTES) - 1),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_any_single_byte_flip_is_rejected(self, position, flip):
        """Flip any byte of the encoded chain: verification must fail
        (decode error, structural rejection, or signature failure) —
        never succeed with altered content."""
        tampered = bytearray(CHAIN_BYTES)
        tampered[position] ^= flip
        try:
            chain = CertificateChain.decode(bytes(tampered))
        except DecodeError:
            return  # rejected at decode: fine
        try:
            chain.verify({OPERATOR.key_id}, DESCRIPTOR.hash(), now=0.0)
        except ChainError:
            return  # rejected at verification: fine
        # The only way verification may still pass is if the flip landed
        # in a redundant copy of data that is not part of any signed or
        # checked content. Assert the decoded chain is byte-identical to
        # the original in everything that matters: re-encoding must equal
        # the original encoding.
        assert chain.encode() == CHAIN_BYTES

    def test_swapped_certificates_rejected(self):
        chain = CertificateChain.decode(CHAIN_BYTES)
        chain.certificates.reverse()
        with pytest.raises(ChainError):
            chain.verify({OPERATOR.key_id}, DESCRIPTOR.hash(), now=0.0)

    def test_descriptor_substitution_rejected(self):
        """A valid chain for descriptor A must not authorize B."""
        other = ExperimentDescriptor(
            name="evil", controller_addr=9, controller_port=9, url="u",
            experimenter_key_id=EXPERIMENTER.key_id,
        )
        auth = Auth(
            descriptor=other.encode(),
            chains=(CHAIN_BYTES,),
            priority=0,
        )
        with pytest.raises(AuthError, match="does not sign"):
            verify_auth(auth, [OPERATOR.key_id], now=0.0)

    def test_chain_replay_for_other_operator_rejected(self):
        """The chain convinces only endpoints trusting this operator."""
        other_operator = KeyPair.from_name("sec-other-operator")
        auth = Auth(descriptor=DESCRIPTOR.encode(), chains=(CHAIN_BYTES,),
                    priority=0)
        with pytest.raises(AuthError, match="not anchored"):
            verify_auth(auth, [other_operator.key_id], now=0.0)

    def test_self_signed_experiment_rejected(self):
        """An experimenter cannot skip the delegation and sign directly."""
        from repro.crypto.certificate import CERT_EXPERIMENT, Certificate

        chain = CertificateChain()
        chain.append(
            Certificate.issue(EXPERIMENTER, CERT_EXPERIMENT, DESCRIPTOR.hash()),
            EXPERIMENTER.public_key,
        )
        auth = Auth(descriptor=DESCRIPTOR.encode(), chains=(chain.encode(),),
                    priority=0)
        with pytest.raises(AuthError, match="not anchored"):
            verify_auth(auth, [OPERATOR.key_id], now=0.0)


class TestEndToEndVersioning:
    def test_version_mismatch_rejected_by_controller(self):
        from repro.core.testbed import Testbed
        from repro.proto.framing import MessageStream

        testbed = Testbed()
        server, descriptor = testbed.make_controller()

        def odd_endpoint():
            conn = yield from testbed.endpoint_host.tcp.open_connection(
                descriptor.controller_addr, descriptor.controller_port
            )
            stream = MessageStream(conn)
            stream.send(Hello(version=PROTOCOL_VERSION + 1,
                              caps=0, endpoint_name="future-ep"))
            yield 2.0
            return None

        testbed.sim.run_process(odd_endpoint(), timeout=60.0)
        testbed.run(until=testbed.sim.now + 5.0)
        assert any("version mismatch" in reason
                   for reason in server.auth_failures)
        assert len(server.endpoints) == 0
