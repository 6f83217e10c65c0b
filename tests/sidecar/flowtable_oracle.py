"""Budget eviction's victim as it was chosen: the differential oracle.

``FlowTable._tenant_lru`` takes its victim from a per-tenant heap that
is corrected only at its top.  The scan it replaced lives on here,
outside ``src/``, verbatim: the least ``(last_activity, admitted_at,
flow_key)`` over every resident record of the tenant.  The order is
total (flow keys are unique among resident records), so whatever record
the two disagree on is a defect of the heap's bookkeeping.
"""

from __future__ import annotations

from repro.sidecar.flowtable import FlowRecord, FlowTable

#: Resident bank of one default-config emitter (threshold=4, bits=32).
BANK = 18


def reference_lru(table: FlowTable, tenant: str) -> FlowRecord:
    records = table._tenants[tenant].values()
    return min(records, key=lambda r: (r.last_activity, r.admitted_at,
                                       r.flow_key))
