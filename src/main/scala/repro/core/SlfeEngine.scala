package repro.core

import java.util.BitSet
import scala.collection.mutable.ArrayBuffer
import repro.graph.{PropertyGraph, VertexMap}

/** The SLFE execution engine (paper §3.3–3.5) and, with `rrg = None`, the
  * Gemini-like baseline it is built on: an adaptive push/pull vertex-centric
  * engine with an active list.
  *
  * - `edgeProcMinMax` is the paper's `edgeProc(pushFunc, pullFunc,
  *   activeVerts, Ruler)` API: pull iterations gather from *all*
  *   in-neighbors of each computed destination and, under RR, skip
  *   destinations whose `RRG.lastIter` lies beyond the current iteration
  *   ("start late", `pullEdge_singleRuler`).
  * - `edgeProcArith` is `edgeProc(pushFunc, pullFunc)` + `vertexUpdate`:
  *   always pull (paper footnote 2), with the per-vertex stability counter
  *   (`RulerS`) freezing early-converged vertices ("finish early",
  *   `pullEdge_multiRuler`).
  *
  * Correctness (paper Alg. 3 + Theorem 1): every pull→push transition
  * reactivates all vertices, and under RR convergence is only declared
  * after an all-active push pass produces zero updates.
  */
object SlfeEngine {

  /** Pull when the active out-edge volume exceeds this fraction of |E|
    * (Gemini's |E|/20 density switch).
    */
  val DenseFraction = 0.05

  /** Run a min/max-aggregation application to its fixpoint. */
  def edgeProcMinMax(g: PropertyGraph, prog: VertexProgram, rrg: Option[RRGuidance],
                     system: String = "SLFE", maxIters: Int = 200,
                     denseFrac: Double = DenseFraction): RunResult = {
    val rr = rrg.isDefined
    var state = EdgeOps.initState(g, prog, rrg)
    val numEdges = g.numEdges
    // Last scheduled propagation level; beyond it the RR run is pure push.
    val maxLastIter = if (state.isEmpty) 0 else state.iterator.map(_.lastIter).max
    val stats = ArrayBuffer.empty[IterationStat]
    val t0 = System.nanoTime()
    var iter = 0
    var prevMode = ""
    var verifying = false   // current all-active push is the final fixpoint check
    var needsVerify = false // some pull skipped vertices since the last all-active push
    var done = false
    while (!done && iter < maxIters) {
      iter += 1
      val activeOut = state.iterator.filter(_.active).map(_.outDeg).sum
      // "Start late": under RR the run has two phases. While iter <=
      // maxLastIter, pull mode performs each vertex's single scheduled
      // gather at exactly its lastIter — all earlier computations are the
      // redundancy being skipped, and later re-gathers are replaced by the
      // delta-driven push phase that follows (plus the reactivation /
      // verification passes that guarantee the fixpoint, Theorem 1).
      val mode =
        if (verifying) "push"
        else if (rr) { if (iter <= maxLastIter) "pull" else "push" }
        else if (activeOut > denseFrac * numEdges) "pull"
        else "push"
      // Alg. 3 lines 2-4: vertices deactivated by RR may hold updates their
      // successors never pulled — reactivate everyone when entering push.
      val reactivated = mode == "push" && (prevMode == "pull" || verifying)
      if (reactivated) state = state.map(_.copy(active = true))
      val it0 = System.nanoTime()
      val values = state.map(_.value)
      val (msgs, computedCount) = mode match {
        case "pull" =>
          val dsts = if (rr) Some(indexSet(state)(_.lastIter == iter)) else None
          val computed = dsts.fold(state.length)(_.cardinality)
          if (computed < state.length) needsVerify = true
          (EdgeOps.pull(g, prog, values, dsts), computed.toLong)
        case _ =>
          if (reactivated) needsVerify = false // all-active push re-delivers everything
          val m = EdgeOps.push(g, prog, values, state.indices.filter(state(_).active).toArray)
          (m, m.receivers.toLong)
      }
      var updates = 0L
      val prev = state
      state = Array.tabulate(prev.length) { i =>
        val v = prev(i)
        if (msgs.received(i)) {
          val cand = prog.applyFn(msgs.agg(i), v.value)
          if (prog.improves(cand, v.value)) { updates += 1; v.copy(value = cand, active = true) }
          else v.copy(active = false)
        } else v.copy(active = false)
      }
      stats += IterationStat(iter, mode, computedCount, msgs.edges, updates,
        (System.nanoTime() - it0) / 1000000L)
      if (updates == 0) {
        if (!rr || !needsVerify) done = true // quiescence is exact (Theorem 1)
        else { state = state.map(_.copy(active = true)); verifying = true }
      } else verifying = false
      prevMode = mode
    }
    require(done, s"$system/${prog.name} on ${g.name} hit maxIters=$maxIters before converging")
    RunResult(system, prog.name, g.name, VertexMap.dense(g.vertexIds, state.map(_.value)),
      stats.toVector, (System.nanoTime() - t0) / 1000000L)
  }

  /** Run an arithmetic application for `iters` pull iterations (the paper
    * reports per-iteration cost for PR/TR). With `earlyStop` the loop exits
    * once no computed vertex changes. The embedded stability tracking is the
    * paper's `vertexUpdate` (Alg. 5 lines 11-18).
    */
  def edgeProcArith(g: PropertyGraph, prog: VertexProgram, rrg: Option[RRGuidance],
                    system: String = "SLFE", iters: Int = 30,
                    earlyStop: Boolean = false): RunResult = {
    val rr = rrg.isDefined
    var state = EdgeOps.initState(g, prog, rrg)
    val stats = ArrayBuffer.empty[IterationStat]
    val t0 = System.nanoTime()
    var iter = 0
    var done = false
    // A vertex computes while its stable streak is below its lastIter
    // (clamped to >= 1 so every vertex is computed at least once — pure
    // sources have lastIter 0 but still need their first apply).
    def computable(v: VState): Boolean = !rr || v.stableCnt < math.max(v.lastIter, 1)
    while (!done && iter < iters) {
      iter += 1
      val it0 = System.nanoTime()
      val dsts = if (rr) Some(indexSet(state)(computable)) else None
      val msgs = EdgeOps.pull(g, prog, state.map(_.value), dsts)
      var updates = 0L
      val prev = state
      state = Array.tabulate(prev.length) { i =>
        val v = prev(i)
        if (computable(v)) {
          val m = if (msgs.received(i)) msgs.agg(i) else prog.noMsgAgg
          val cand = prog.applyFn(m, v.value)
          val changed = prog.improves(cand, v.value)
          if (changed) updates += 1
          v.copy(value = cand, active = changed,
            stableCnt = if (changed) 0 else v.stableCnt + 1)
        } else v.copy(active = false) // early-converged: serve the cached value
      }
      val computed = dsts.fold(state.length)(_.cardinality).toLong
      stats += IterationStat(iter, "pull", computed, msgs.edges, updates,
        (System.nanoTime() - it0) / 1000000L)
      if (earlyStop && updates == 0) done = true
    }
    RunResult(system, prog.name, g.name, VertexMap.dense(g.vertexIds, state.map(_.value)),
      stats.toVector, (System.nanoTime() - t0) / 1000000L)
  }

  /** Dense indices of the vertices satisfying `p`. */
  private def indexSet(state: Array[VState])(p: VState => Boolean): BitSet = {
    val b = new BitSet(state.length)
    for (i <- state.indices if p(state(i))) b.set(i)
    b
  }
}
