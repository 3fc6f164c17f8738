"""Admission checks on uploaded graphs (``upload_payload``)."""

import numpy as np
import pytest

from repro.serve.pipeline import upload_payload

NO_EDGES = np.empty((0, 2), dtype=np.int64)


def test_vertex_count_beyond_int32_ids_is_rejected():
    # Vertex ids are int32 in the CSR; the request is refused before any
    # graph (or offsets array) is built, so this allocates nothing.
    with pytest.raises(ValueError, match="num_vertices"):
        upload_payload(2**31, NO_EDGES)

