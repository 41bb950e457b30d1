# simlint: sim-context
"""Known-bad PROTO fixtures; line numbers are pinned in test_simlint.py."""
MAX_FRAME = 1 << 20


class Message:
    pass


def message(type_code):
    return lambda cls: cls


class HalfCodec:                               # PROTO001 line 14
    def encode_body(self, writer):
        writer.u8(1)


class Rogue(Message):                          # PROTO002 line 19
    TYPE = 250

    def encode_body(self, writer):
        writer.u8(self.TYPE)

    @classmethod
    def decode_body(cls, reader):
        return cls()


def send(payload):
    if len(payload) > MAX_FRAME:               # PROTO003 line 31
        raise ValueError("oversized frame")


def probe(stream, NSend):
    stream.send(NSend(reqid=1, sktid=0, time=0, data=b""))  # PROTO004 line 36
