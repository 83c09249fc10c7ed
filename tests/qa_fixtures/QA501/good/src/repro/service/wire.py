"""Codec with a v1 entry for every container."""

from repro.frequency.olh import OLHReports
from repro.protocol.reports import SampledNumericReports


def encode_reports(reports):
    if isinstance(reports, SampledNumericReports):
        return {"type": "sampled-numeric", "cols": list(reports.cols)}
    if isinstance(reports, OLHReports):
        return {"type": "olh", "seeds": list(reports.seeds)}
    raise TypeError(f"cannot encode report container {type(reports)}")


def decode_reports(payload):
    if payload["type"] == "sampled-numeric":
        return SampledNumericReports(cols=payload["cols"])
    if payload["type"] == "olh":
        return OLHReports(seeds=payload["seeds"])
    raise TypeError(f"cannot decode report payload {payload['type']}")
