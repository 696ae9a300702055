"""Inter-node (RMA) halves of the SRM collectives (paper §2.3–2.4).

Every operation enters through the request layer (:mod:`repro.core.requests`);
these modules hold the protocols it runs.
"""
