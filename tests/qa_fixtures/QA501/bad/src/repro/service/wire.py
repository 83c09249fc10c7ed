"""A v1 codec whose decoder rebuilds containers by name.

``encode_reports`` goes through ``to_block()``; ``decode_reports``
does not, so a container it does not name cannot come back off v1.
"""

from repro.protocol.reports import SampledNumericReports, to_block


def encode_reports(reports):
    return {"type": "block", "block": to_block(reports)}


def decode_reports(payload):
    if payload["type"] == "sampled-numeric":
        return SampledNumericReports(cols=payload["cols"])
    raise TypeError(f"cannot decode report payload {payload['type']}")
