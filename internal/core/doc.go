// Package core implements the concurrent batch-evaluation engines at the
// heart of this reproduction — the paper's primary contribution and its
// baselines:
//
//   - LigraS: queries evaluated one after another (baseline "Ligra-S").
//   - TwoLevel: unified + per-query separate frontiers (baseline "Ligra-C",
//     the design of Krill and SimGQ — paper Figure 5-b).
//   - Krill: a fused variant of the two-level design keeping per-vertex
//     query bitmasks instead of B separate frontier arrays.
//   - Oblivious: Glign's query-oblivious frontier (paper Figure 5-c,
//     §3.2) — a single unified frontier with every active vertex relaxed
//     for all queries in the batch.
//
// The monotone batch engines (Glign-Intra, Ligra-C, Krill and the GraphM
// baseline) share one push-model global-iteration loop, RunFrontier: it owns
// delayed-start injection, the stop test, iteration records and telemetry,
// and each engine supplies only a FrontierPolicy — its frontier structures
// and its edge loop.
//
// All engines keep a batch in one flat value array whose layout each engine
// picks by its access pattern (see ValueLayout): Glign-Intra uses the paper's
// §3.5 layout, the value of vertex v for query i at ValArray[v*B+i]; the
// per-lane engines give each query a padded segment. All honor an optional
// alignment vector (paper Definition 3.3) that delays the start
// of individual queries to later global iterations — the mechanism of
// Glign-Inter's "delayed start".
//
// When Options.Telemetry is set, every engine records one IterationStat per
// global iteration — frontier size, mode, active and injected
// queries, edges processed, lane relaxations, value writes — at a cost of
// one record per iteration, never per edge (see internal/telemetry and
// OBSERVABILITY.md).
package core
