"""The generated query streams, pinned across versions.

``test_deterministic`` compares two runs of the same code; this compares
the streams with digests recorded once, so a change to the generator, to
``StarQuery.build`` or to hierarchy navigation that moves any draw or any
query shows here.  Each digest is the SHA-256 of one query per line,
``repr((groupby, selections, aggregates, dim_filters,
sorted(fixed_predicates)))``, over a fresh generator at seed 1998 on the
paper schema.
"""

import hashlib

import pytest

from repro.experiments.configs import build_paper_schema
from repro.workload.generator import (
    EQPR,
    PROXIMITY,
    Q60,
    Q80,
    Q100,
    RANDOM,
    SESSION,
    QueryGenerator,
)

SEED = 1998
QUERIES = 1000

#: Recorded at d45bd17.
GOLDEN = {
    "Random": "c37b32e58a434020261feff9e9ba79b121e375d0e99e3b7f0ac54a9ec1231b21",
    "EQPR": "bbadedb200f11d8af25e0304ee88c28f05caa1baca5b5c03bdf61ca8354bb02d",
    "Proximity": "e7462cfe1589194285577532e9feef2ccbcc1f288eb00f91028ea637e6602ad9",
    "Q60": "a862e9c4f50a7c2f9ef446b61fa9183b11840741ad22507d86b02a164a1daa99",
    "Q80": "97175df2ea972fb079c816417e0e8f2f7aea2aad9cc684170a3758df6c314105",
    "Q100": "45f5746ebae365b375785c34b3d28c5dc63e3047afbeb345dfd42a17e16ce804",
    "Session": "c5141facf5ac81217e9c8f419bb40e84f056757bd62eec2f3aac34368426e0e8",
}


def stream_digest(queries):
    text = "\n".join(
        repr(
            (
                q.groupby,
                q.selections,
                q.aggregates,
                q.dim_filters,
                sorted(q.fixed_predicates),
            )
        )
        for q in queries
    )
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def schema():
    return build_paper_schema()


@pytest.mark.parametrize(
    "mix",
    [RANDOM, EQPR, PROXIMITY, Q60, Q80, Q100, SESSION],
    ids=lambda mix: mix.name,
)
def test_stream_equals_its_golden_digest(schema, mix):
    queries = QueryGenerator(schema, seed=SEED).stream(QUERIES, mix)
    assert stream_digest(queries) == GOLDEN[mix.name]
