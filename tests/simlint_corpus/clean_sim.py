# simlint: sim-context
"""The approved idioms: every pattern the bad fixtures get wrong, done
right. This file must scan with zero findings."""
from random import Random

MAX_FRAME = 1 << 20


class Message:
    pass


def message(type_code):
    return lambda cls: cls


@message(7)
class Probe(Message):                        # one decorated field table: clean
    sktid: int = 0


def send(payload):
    if len(payload) > MAX_FRAME:
        raise ValueError("oversized frame")


def recv(length):
    if length > MAX_FRAME:
        raise ValueError("oversized frame")


def process(sim, peers, obs, seed=0):
    rng = Random(seed)                       # seeded from config: clean
    started = sim.now                        # virtual time: clean
    jitter = rng.uniform(0.0, 1.0)
    for peer in sorted(set(peers)):          # sorted first: clean
        sim.schedule(peer)
    if obs.enabled:                          # guarded: clean
        obs.counter("corpus.processed").inc()
    yield started, jitter
