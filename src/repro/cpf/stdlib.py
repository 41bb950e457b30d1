"""The Cpf standard prelude.

The paper says Cpf "allows us to directly use existing constant and
structure definitions written in the C language". This module provides
those definitions: the ``union packet`` view of raw IPv4 packets (the type
Figure 2 assumes), the ``struct plinfo`` endpoint info block (§3.1), and
the familiar ``netinet``-style constants.

The prelude is itself written in Cpf and parsed by the same front end, so
its layouts are computed by the compiler's own struct-layout rules. The
``struct plinfo`` layout must match :mod:`repro.endpoint.memory`, which is
asserted by tests.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cpf.parser import Parser
from repro.cpf.types import CpfType, StructType

PRELUDE_SOURCE = """
/* Quoted original IP header as it appears inside ICMP error bodies. */
struct ip_orig {
    uint8_t ver : 4;
    uint8_t ihl : 4;
    uint8_t tos;
    uint16_t len;
    uint16_t id;
    uint16_t frag;
    uint8_t ttl;
    uint8_t proto;
    uint16_t checksum;
    in_addr_t src;
    in_addr_t dst;
};

/* Raw-packet view: every filter's packet argument has this shape. */
union packet {
    struct {
        uint8_t ver : 4;
        uint8_t ihl : 4;
        uint8_t tos;
        uint16_t len;
        uint16_t id;
        uint16_t frag;
        uint8_t ttl;
        uint8_t proto;
        uint16_t checksum;
        in_addr_t src;
        in_addr_t dst;
        union {
            struct {
                uint8_t type;
                uint8_t code;
                uint16_t checksum;
                uint16_t ident;
                uint16_t seq;
                struct {
                    struct ip_orig ip;
                    uint8_t data[8];
                } orig;
            } icmp;
            struct {
                in_port_t sport;
                in_port_t dport;
                uint16_t len;
                uint16_t checksum;
                uint8_t data[1472];
            } udp;
            struct {
                in_port_t sport;
                in_port_t dport;
                uint32_t seq;
                uint32_t ack;
                uint8_t offset;
                uint8_t flags;
                uint16_t win;
                uint16_t checksum;
                uint16_t urgent;
                uint8_t data[1460];
            } tcp;
            uint8_t payload[1480];
        };
    } ip;
    uint8_t raw[1500];
};

/* Endpoint info block (PacketLab section 3.1), read via mread and visible
 * to monitors through the info pointer. Layout mirrors
 * repro.endpoint.memory.  */
struct plinfo {
    uint16_t version;
    uint16_t caps;
    uint32_t reserved;
    struct {
        in_addr_t ip;
        in_addr_t ext_ip;
        in_addr_t gateway;
        in_addr_t dns;
    } addr;
    uint64_t clock;
    uint32_t buffer_capacity;
    uint32_t buffer_used;
    uint32_t buffer_dropped_packets;
    uint64_t buffer_dropped_bytes;
};

enum {
    ICMP_ECHO_REPLY = 0,
    ICMP_DEST_UNREACH = 3,
    ICMP_ECHO_REQUEST = 8,
    ICMP_TIME_EXCEEDED = 11,

    ICMP_UNREACH_NET = 0,
    ICMP_UNREACH_HOST = 1,
    ICMP_UNREACH_PROTO = 2,
    ICMP_UNREACH_PORT = 3,

    IPPROTO_ICMP = 1,
    IPPROTO_TCP = 6,
    IPPROTO_UDP = 17,

    TH_FIN = 0x01,
    TH_SYN = 0x02,
    TH_RST = 0x04,
    TH_PUSH = 0x08,
    TH_ACK = 0x10,
    TH_URG = 0x20,

    /* Capture verdicts for ncap filter programs. */
    FILT_DROP = 0,
    FILT_CONSUME = 1,
    FILT_MIRROR = 2,

    /* Info caps bits. */
    PLCAP_RAW = 1,
};
"""

# Fixed offsets asserted against repro.endpoint.memory by tests.
INFO_ADDR_IP_OFFSET = 8
INFO_CLOCK_OFFSET = 24


@lru_cache(maxsize=1)
def prelude() -> tuple[dict[str, StructType], dict[str, CpfType], dict[str, int]]:
    """Parse the prelude once; returns (struct_tags, typedefs, constants)."""
    parser = Parser(PRELUDE_SOURCE)
    parser.parse_program()
    return parser.struct_tags, parser.typedefs, parser.constants


def packet_union() -> StructType:
    return prelude()[0]["union packet"]


def plinfo_struct() -> StructType:
    return prelude()[0]["struct plinfo"]
