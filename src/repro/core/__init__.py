"""The paper's contribution: shared-computation Pareto-frontier monitoring.

Modules: dominance kernels and the frontier row store, common preference
relations (Def.5), similarity functions (Eqs.2-6), HAC clustering (Def.7),
GetApproxPreferenceTuples (Alg.3), efficacy metrics (Eqs.7-9), and
``sliding``: the Baseline and FilterThenVerify engines, append-only
(Algs.1-2, ``window=None``) or over a count-based window (Algs.4-5)."""
