"""PROTO rules: wire-protocol symmetry.

Protocol asymmetries have bitten this repo before (the MAX_FRAME
send/recv mismatch fixed in an earlier PR survived until fault-injection
testing).  These rules keep encoder/decoder pairs and frame-bound checks
structurally symmetric:

- PROTO001 — message class with ``encode_body`` but no ``decode_body``
  (or vice versa)
- PROTO002 — Message subclass not created through ``@message(TYPE)``,
  so it has no codec and ``decode_message`` cannot round-trip it
- PROTO003 — a module compares against MAX_FRAME on only one side of the
  wire (send xor recv)
- PROTO004 — a Table 1 command message built outside
  ``controller/client.py``, whose ``EndpointHandle.issue`` is the one
  place a command frame gets its reqid
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import ModuleInfo, RepoModel
from repro.analysis.rules import Finding, Rule, dotted_name, register_rule


@register_rule
class CodecPairRule(Rule):
    id = "PROTO001"
    name = "codec-asymmetry"
    summary = ("class defines encode_body without decode_body (or vice "
               "versa); every wire message must round-trip")
    scope = "all"

    def check_module(self, module: ModuleInfo, model: RepoModel) -> Iterator[Finding]:
        for cls in module.classes.values():
            methods = set(cls.methods)
            has_enc = "encode_body" in methods
            has_dec = "decode_body" in methods
            if has_enc == has_dec:
                continue
            missing = "decode_body" if has_enc else "encode_body"
            present = "encode_body" if has_enc else "decode_body"
            node = _class_node(module, cls.name)
            yield self.finding(
                module, node,
                f"class {cls.name} defines {present} but not {missing}; "
                f"wire messages must encode and decode symmetrically",
            )


@register_rule
class UnregisteredMessageRule(Rule):
    id = "PROTO002"
    name = "unregistered-message"
    summary = ("Message subclass not created through the @message decorator; "
               "decode_message() will reject its TYPE on the wire")
    scope = "all"

    def check_module(self, module: ModuleInfo, model: RepoModel) -> Iterator[Finding]:
        for cls in module.classes.values():
            if "Message" not in cls.bases:
                continue
            if any(dec.split(".")[-1] == "message" for dec in cls.decorators):
                continue
            node = _class_node(module, cls.name)
            yield self.finding(
                module, node,
                f"Message subclass {cls.name} is not declared with @message; "
                f"its frames will decode as 'unknown message type'",
            )


@register_rule
class FrameBoundSymmetryRule(Rule):
    id = "PROTO003"
    name = "frame-bound-asymmetry"
    summary = ("MAX_FRAME compared on only one side of the wire in this "
               "module; bound checks must cover both send and recv")
    scope = "all"

    def check_module(self, module: ModuleInfo, model: RepoModel) -> Iterator[Finding]:
        sites: list[ast.Compare] = []
        for node in module.walk():
            if isinstance(node, ast.Compare) and self._mentions_max_frame(node):
                sites.append(node)
        if len(sites) == 1:
            yield self.finding(
                module, sites[0],
                "module bounds-checks MAX_FRAME exactly once; the opposite "
                "direction (send vs recv) is unchecked — add the symmetric "
                "comparison or move the check to shared framing code",
            )

    @staticmethod
    def _mentions_max_frame(node: ast.Compare) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id == "MAX_FRAME":
                return True
            if isinstance(child, ast.Attribute) and child.attr == "MAX_FRAME":
                return True
        return False


TABLE1_COMMANDS = frozenset(
    {"NOpen", "NClose", "NSend", "NCap", "NPoll", "MRead", "MWrite"}
)


@register_rule
class HandBuiltCommandRule(Rule):
    id = "PROTO004"
    name = "hand-built-command"
    summary = ("Table 1 command message instantiated outside "
               "controller/client.py; only EndpointHandle.issue may build one")
    scope = "all"

    def check_module(self, module: ModuleInfo, model: RepoModel) -> Iterator[Finding]:
        if module.name == "repro.controller.client":
            return
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func).rpartition(".")[2]
            if name in TABLE1_COMMANDS:
                yield self.finding(
                    module, node,
                    f"{name}(...) built by hand skips reqid allocation, "
                    f"note_request and the pending table; send it through "
                    f"handle.issue({name}, ...) / handle.call({name}, ...)",
                )


def _class_node(module: ModuleInfo, name: str) -> ast.AST:
    for node in module.walk():
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return module.tree
