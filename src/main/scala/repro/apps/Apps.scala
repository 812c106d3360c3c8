package repro.apps

import repro.core.{AggKind, VertexProgram}

/** The five evaluation applications (paper §4.1), written as SLFE vertex
  * programs. Min/max programs (SSSP, CC, WP) benefit from "start late";
  * arithmetic programs (PR, TR) from "finish early" (paper Table 1).
  */
object Apps {

  /** "Infinity" sentinel kept finite so the DuckDB oracle can round-trip it. */
  val Inf: Double = 1e18

  /** Single-Source Shortest Path (paper Alg. 4): min-aggregation of
    * srcDist + edgeWeight; only improvements activate the vertex.
    *
    * With `unitWeight` every edge counts 1 (hop distance) — the evaluation
    * setting: the paper's SNAP/KONECT graphs are unweighted, and unit
    * weights are what align SSSP's propagation schedule with the RRG's BFS
    * levels (a vertex's distance finalizes by its `lastIter`, the "start
    * late" premise). Weighted SSSP remains supported for generality.
    */
  def sssp(root: Long, unitWeight: Boolean = false): VertexProgram = VertexProgram(
    name = "SSSP", agg = AggKind.Min,
    initValue = v => if (v == root) 0.0 else Inf,
    initActive = _ == root,
    msg = if (unitWeight) (srcVal, _, _) => srcVal + 1.0
          else (srcVal, w, _) => srcVal + w,
    applyFn = (m, _) => m,
    improves = (cand, old) => cand < old,
  )

  /** Connected Components: min-label propagation over the symmetrized graph
    * (run it on `graph.symmetrize`). Every vertex starts active with its own
    * id as label.
    */
  val cc: VertexProgram = VertexProgram(
    name = "CC", agg = AggKind.Min,
    initValue = _.toDouble,
    initActive = _ => true,
    msg = (srcVal, _, _) => srcVal,
    applyFn = (m, _) => m,
    improves = (cand, old) => cand < old,
  )

  /** Widest Path: max-aggregation of min(srcWidth, edgeWeight); the root's
    * width is Inf, unreached vertices stay at 0.
    */
  def wp(root: Long): VertexProgram = VertexProgram(
    name = "WP", agg = AggKind.Max,
    initValue = v => if (v == root) Inf else 0.0,
    initActive = _ == root,
    msg = (srcVal, w, _) => math.min(srcVal, w),
    applyFn = (m, _) => m,
    improves = (cand, old) => cand > old,
  )

  /** PageRank (paper Alg. 5): rank'(v) = 0.15 + 0.85 * sum of
    * rank(u)/outDeg(u) over in-edges u->v. Dangling mass is dropped, as in
    * Gemini's implementation.
    */
  def pagerank(eps: Double = 1e-9): VertexProgram = VertexProgram(
    name = "PR", agg = AggKind.Sum,
    initValue = _ => 1.0,
    initActive = _ => true,
    msg = (srcVal, _, srcOutDeg) => srcVal / srcOutDeg,
    applyFn = (m, _) => 0.15 + 0.85 * m,
    improves = (cand, old) => math.abs(cand - old) > eps,
  )

  /** TunkRank-style influence: t'(v) = sum over followers u->v of
    * (1 + p*t(u)) / outDeg(u).
    */
  def tunkrank(p: Double = 0.5, eps: Double = 1e-9): VertexProgram = VertexProgram(
    name = "TR", agg = AggKind.Sum,
    initValue = _ => 0.0,
    initActive = _ => true,
    msg = (srcVal, _, srcOutDeg) => (1.0 + p * srcVal) / srcOutDeg,
    applyFn = (m, _) => m,
    improves = (cand, old) => math.abs(cand - old) > eps,
  )
}
