"""A v1 codec that goes through ``to_block()`` and names no container."""

from repro.protocol.reports import ColumnBlock, to_block


def encode_reports(reports):
    block = to_block(reports)
    return {"type": block.kind, **block.columns}


def decode_reports(payload):
    columns = {k: v for k, v in payload.items() if k != "type"}
    n = len(next(iter(columns.values()), ()))
    block = ColumnBlock(kind=payload["type"], n=n, columns=columns)
    return to_block(block)
