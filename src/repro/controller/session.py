"""Experimenter identity and the Figure 1 authorization workflow.

An :class:`Experimenter` owns a key pair and collects authorizations:

- a publish authorization from a rendezvous operator (Figure 1 ➊),
- delegation certificates from endpoint operators (➋/➌).

It can then sign experiment certificates for descriptors (➍), build the
chains each party verifies, publish to a rendezvous server (➎/➏), and hand
a :class:`~repro.controller.client.ExperimentIdentity` to a controller for
endpoint presentation (➐/➑).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.controller.client import ExperimentIdentity
from repro.crypto.certificate import (
    CERT_EXPERIMENT,
    Certificate,
    Restrictions,
)
from repro.crypto.chain import CertificateChain
from repro.crypto.keys import KeyPair
from repro.netsim.node import Node
from repro.netsim.stack.tcp import TcpError
from repro.proto.framing import FramingError, MessageStream
from repro.proto.messages import RdzPublish, RdzPublishResult
from repro.rendezvous.descriptor import ExperimentDescriptor


@dataclass
class OperatorGrant:
    """A delegation from an operator to this experimenter."""

    operator_public_key: bytes
    certificate: Certificate


class Experimenter:
    """A researcher with a key pair and collected authorizations."""

    def __init__(self, name: str, keypair: Optional[KeyPair] = None) -> None:
        self.name = name
        self.keys = keypair or KeyPair.from_name(name)
        self.endpoint_grants: list[OperatorGrant] = []
        self.publish_grant: Optional[OperatorGrant] = None

    # -- obtaining authorizations (operator side actions) ----------------------

    def granted_endpoint_access(
        self, operator: KeyPair, restrictions: Optional[Restrictions] = None
    ) -> OperatorGrant:
        """An endpoint operator signs a delegation for this experimenter
        (Figure 1 ➌)."""
        grant = OperatorGrant(
            operator_public_key=operator.public_key,
            certificate=Certificate.delegate(
                operator, self.keys.public_key, restrictions
            ),
        )
        self.endpoint_grants.append(grant)
        return grant

    def granted_publish_access(
        self, rendezvous_operator: KeyPair,
        restrictions: Optional[Restrictions] = None,
    ) -> OperatorGrant:
        """A rendezvous operator authorizes publishing (Figure 1 ➊)."""
        self.publish_grant = OperatorGrant(
            operator_public_key=rendezvous_operator.public_key,
            certificate=Certificate.delegate(
                rendezvous_operator, self.keys.public_key, restrictions
            ),
        )
        return self.publish_grant

    # -- experiment certificates and chains -------------------------------------

    def make_descriptor(
        self,
        controller_node: Node,
        controller_port: int,
        experiment_name: str,
        url: str = "",
    ) -> ExperimentDescriptor:
        return ExperimentDescriptor(
            name=experiment_name,
            controller_addr=controller_node.primary_address(),
            controller_port=controller_port,
            url=url or f"https://example.org/experiments/{experiment_name}",
            experimenter_key_id=self.keys.key_id,
        )

    def experiment_certificate(
        self,
        descriptor: ExperimentDescriptor,
        restrictions: Optional[Restrictions] = None,
    ) -> Certificate:
        """Sign an experiment certificate for a descriptor (Figure 1 ➍)."""
        return Certificate.issue(
            self.keys, CERT_EXPERIMENT, descriptor.hash(), restrictions
        )

    def _chain_from_grant(
        self,
        grant: OperatorGrant,
        descriptor: ExperimentDescriptor,
        experiment_restrictions: Optional[Restrictions],
    ) -> CertificateChain:
        chain = CertificateChain()
        chain.append(grant.certificate, grant.operator_public_key)
        chain.append(
            self.experiment_certificate(descriptor, experiment_restrictions),
            self.keys.public_key,
        )
        return chain

    def publish_chain(
        self,
        descriptor: ExperimentDescriptor,
        experiment_restrictions: Optional[Restrictions] = None,
    ) -> CertificateChain:
        """The chain presented to the rendezvous server."""
        if self.publish_grant is None:
            raise RuntimeError(f"{self.name} has no publish grant")
        return self._chain_from_grant(
            self.publish_grant, descriptor, experiment_restrictions
        )

    def identity(
        self,
        descriptor: ExperimentDescriptor,
        priority: int = 0,
        grant: Optional[OperatorGrant] = None,
        experiment_restrictions: Optional[Restrictions] = None,
    ) -> ExperimentIdentity:
        """Everything a ControllerServer presents to endpoints.

        With ``grant=None`` the identity carries one chain per collected
        operator grant, so endpoints of every delegating operator accept
        the same experiment.
        """
        if grant is not None:
            grants = [grant]
        else:
            if not self.endpoint_grants:
                raise RuntimeError(f"{self.name} has no endpoint grants")
            grants = self.endpoint_grants
        chains = tuple(
            self._chain_from_grant(g, descriptor, experiment_restrictions).encode()
            for g in grants
        )
        return ExperimentIdentity(
            descriptor_bytes=descriptor.encode(),
            chain_bytes_list=chains,
            priority=priority,
        )

    # -- publishing (Figure 1 ➎) ---------------------------------------------------

    def publish(
        self,
        node: Node,
        rdz_addr: int,
        rdz_port: int,
        descriptor: ExperimentDescriptor,
        experiment_restrictions: Optional[Restrictions] = None,
        grants: Optional[list[OperatorGrant]] = None,
    ) -> Generator:
        """Publish an experiment; returns (ok, reason). Generator — use
        ``ok, reason = yield from experimenter.publish(...)``.

        ``grants`` restricts the delivery chains sent along (used by
        sharded rendezvous to give each shard only the chains whose
        operator channels it owns); default is every collected grant.
        """
        publish_chain = self.publish_chain(descriptor, experiment_restrictions)
        delivery = tuple(
            self._chain_from_grant(
                grant, descriptor, experiment_restrictions
            ).encode()
            for grant in (self.endpoint_grants if grants is None else grants)
        )
        try:
            conn = yield from node.tcp.open_connection(rdz_addr, rdz_port)
        except TcpError as exc:
            return False, f"cannot reach rendezvous: {exc}"
        stream = MessageStream(conn)
        stream.send(
            RdzPublish(
                descriptor=descriptor.encode(),
                chain=publish_chain.encode(),
                delivery_chains=delivery,
            )
        )
        try:
            response = yield from stream.recv()
        except (TcpError, FramingError) as exc:
            conn.close()
            return False, f"rendezvous error: {exc}"
        conn.close()
        if isinstance(response, RdzPublishResult):
            return response.ok, response.reason
        return False, "unexpected rendezvous response"
