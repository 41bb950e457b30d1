"""Packet header codecs: IPv4, ICMP, UDP, TCP, and a minimal DNS.

These are real wire-format codecs (checksums included); the PacketLab raw
socket interface, the filter VM, and the capture path all operate on the
bytes these produce.
"""

from repro.packet.checksum import internet_checksum
from repro.packet.dns import DnsMessage, DnsQuestion, DnsRecord
from repro.packet.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    UNREACH_HOST,
    UNREACH_NET,
    UNREACH_PORT,
    IcmpMessage,
)
from repro.packet.ipv4 import (
    DEFAULT_TTL,
    IP_HEADER_LEN,
    PROTO_ICMP,
    PROTO_RAW_TEST,
    PROTO_TCP,
    PROTO_UDP,
    IPv4Packet,
)
from repro.packet.tcp import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_RST,
    FLAG_SYN,
    TcpSegment,
)
from repro.packet.udp import UdpDatagram

__all__ = [
    "DEFAULT_TTL",
    "DnsMessage",
    "DnsQuestion",
    "DnsRecord",
    "FLAG_ACK",
    "FLAG_FIN",
    "FLAG_PSH",
    "FLAG_RST",
    "FLAG_SYN",
    "ICMP_DEST_UNREACH",
    "ICMP_ECHO_REPLY",
    "ICMP_ECHO_REQUEST",
    "ICMP_TIME_EXCEEDED",
    "IP_HEADER_LEN",
    "IPv4Packet",
    "IcmpMessage",
    "PROTO_ICMP",
    "PROTO_RAW_TEST",
    "PROTO_TCP",
    "PROTO_UDP",
    "TcpSegment",
    "UNREACH_HOST",
    "UNREACH_NET",
    "UNREACH_PORT",
    "UdpDatagram",
    "internet_checksum",
]
