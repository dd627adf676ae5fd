"""Node/stream identifiers and wire-size constants.

The paper assumes 48-bit ``ip:port`` pairs as unique node identifiers
(§II-D: a 7-hop embedded path costs ``7 * 48 = 336`` bits).  We keep node
ids as plain integers inside the simulator but account for their wire size
with :data:`NODE_ID_BYTES` so that the metadata-overhead numbers (path
embedding vs. Bloom filters, Fig. 10–12 bandwidth) stay faithful.
"""

from __future__ import annotations

# Type aliases used across the code base.  Node ids are dense small integers
# assigned by the :class:`repro.sim.network.Network`; stream ids identify
# independent dissemination streams (the paper uses a single stream; the
# multi-stream extension of §IV keys all per-stream state by StreamId).
NodeId = int
StreamId = int

#: Wire size of one node identifier: 48-bit ip:port pair (§II-D).
NODE_ID_BYTES = 6

#: Wire size of a stream identifier.
STREAM_BYTES = 2

#: Wire size of a sequence number.
SEQ_BYTES = 4

#: Per-hop measurement header every stream-data message carries: the
#: send timestamp and the cumulative path delay (Fig. 9 sums per-hop
#: delays).
MEASURE_BYTES = 8

#: Wire size of a DAG depth label — "a single integer" (§II-G).
DEPTH_BYTES = 4

#: Fixed per-message framing overhead (TCP/IP + protocol header estimate).
#: Splay messages carry a small type+length header; 40 bytes of TCP/IP
#: headers dominate.  The exact value only shifts all bandwidth figures by
#: a constant, which is irrelevant for the shapes we reproduce.
HEADER_BYTES = 48

#: Size of one keep-alive probe (header only, empty payload).
KEEPALIVE_BYTES = HEADER_BYTES
