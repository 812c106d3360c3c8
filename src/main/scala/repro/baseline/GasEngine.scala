package repro.baseline

import java.util.BitSet
import scala.collection.mutable.ArrayBuffer
import repro.core._
import repro.graph.{EdgeLayout, PropertyGraph, VertexMap}

/** Synchronous gather-apply-scatter baselines standing in for the paper's
  * two comparison systems (Table 5):
  *
  * - **PowerG** (`dense = true`): PowerGraph-like — every iteration gathers
  *   *every* vertex over all its in-edges and scatters every out-edge
  *   without change detection (no active-vertex tracking, cf. the paper's
  *   SPARK-3427 citation). The most redundant baseline.
  * - **PowerL** (`dense = false`): PowerLyra-like active-list GAS — only
  *   vertices signaled by an updated in-neighbor are gathered, and only
  *   updated vertices scatter.
  *
  * Gather runs through the same edge blocks as the SLFE engine
  * (`EdgeOps.pull`), so computation counts are directly comparable;
  * scatter edge counts are added to the per-iteration computation tally.
  */
object GasEngine {

  /** Min/max applications: iterate to the Bellman-Ford fixpoint. */
  def runMinMax(g: PropertyGraph, prog: VertexProgram, dense: Boolean,
                maxIters: Int = 300): RunResult = {
    val system = if (dense) "PowerG" else "PowerL"
    val l = g.layout
    var state = EdgeOps.initState(g, prog, None)
    val stats = ArrayBuffer.empty[IterationStat]
    val t0 = System.nanoTime()
    var iter = 0
    var done = false
    // Signaled vertices: the active ones and their out-neighbours (unused when dense).
    var signaled =
      if (dense) new BitSet
      else {
        val act = state.indices.filter(state(_).active).toArray
        val b = outNbrSet(l, act)
        act.foreach(b.set)
        b
      }
    while (!done && iter < maxIters) {
      iter += 1
      val it0 = System.nanoTime()
      val msgs = EdgeOps.pull(g, prog, state.map(_.value), if (dense) None else Some(signaled))
      val (next, updated) = applyStep(prog, state, msgs.received, msgs)
      state = next
      val updates = updated.length.toLong
      val scatterComps =
        if (dense) g.numEdges // change-blind scatter over every edge
        else updated.iterator.map(l.outDeg(_).toLong).sum
      val computed = if (dense) g.numVertices else signaled.cardinality.toLong
      stats += IterationStat(iter, if (dense) "gas-dense" else "gas-signaled",
        computed, msgs.edges + scatterComps, updates, updates,
        (System.nanoTime() - it0) / 1000000L)
      if (!dense) signaled = outNbrSet(l, updated)
      done = if (dense) updates == 0 else signaled.isEmpty
    }
    require(done, s"$system/${prog.name} on ${g.name} hit maxIters=$maxIters before converging")
    RunResult(system, prog.name, g.name, VertexMap.dense(g.vertexIds, state.map(_.value)),
      stats.toSeq, (System.nanoTime() - t0) / 1000000L)
  }

  /** Arithmetic applications: both variants gather *every* vertex each
    * iteration — PR-family engines in PowerGraph/PowerLyra are static
    * all-active programs (the paper's SPARK-3427 citation: no active-vertex
    * tracking). They differ in scatter accounting: PowerG scatters every
    * edge change-blind; PowerL scatters only changed vertices' out-edges.
    * With `earlyStop` both exit once no vertex changes.
    */
  def runArith(g: PropertyGraph, prog: VertexProgram, dense: Boolean,
               iters: Int = 30, earlyStop: Boolean = false): RunResult = {
    val system = if (dense) "PowerG" else "PowerL"
    val l = g.layout
    var state = EdgeOps.initState(g, prog, None)
    val stats = ArrayBuffer.empty[IterationStat]
    val t0 = System.nanoTime()
    var iter = 0
    var done = false
    while (!done && iter < iters) {
      iter += 1
      val it0 = System.nanoTime()
      val msgs = EdgeOps.pull(g, prog, state.map(_.value), None)
      val (next, updated) = applyStep(prog, state, _ => true, msgs)
      state = next
      val updates = updated.length.toLong
      val scatterComps =
        if (dense) g.numEdges
        else updated.iterator.map(l.outDeg(_).toLong).sum
      stats += IterationStat(iter, if (dense) "gas-dense" else "gas-signaled",
        g.numVertices, msgs.edges + scatterComps, updates, updates,
        (System.nanoTime() - it0) / 1000000L)
      if (earlyStop && updates == 0) done = true
    }
    RunResult(system, prog.name, g.name, VertexMap.dense(g.vertexIds, state.map(_.value)),
      stats.toSeq, (System.nanoTime() - t0) / 1000000L)
  }

  /** Apply step: every vertex with `computed(i)` applies its aggregate (the
    * program's no-message aggregate if none arrived); the others go
    * inactive. A min/max vertex keeps its value unless the candidate
    * improves it; an arithmetic vertex always takes the candidate, so
    * changes below eps still accumulate. Returns the new state and the
    * indices whose value changed.
    */
  private def applyStep(prog: VertexProgram, state: Array[VState], computed: Int => Boolean,
                    msgs: Messages): (Array[VState], Array[Int]) = {
    val updated = Array.newBuilder[Int]
    val next = Array.tabulate(state.length) { i =>
      val v = state(i)
      if (computed(i)) {
        val m = if (msgs.received(i)) msgs.agg(i) else prog.noMsgAgg
        val cand = prog.applyFn(m, v.value)
        val changed = prog.improves(cand, v.value)
        if (changed) updated += i
        v.copy(value = if (changed || prog.arith) cand else v.value, active = changed)
      } else v.copy(active = false)
    }
    (next, updated.result())
  }

  /** Out-neighbours of the vertex indices `vs`. */
  private def outNbrSet(l: EdgeLayout, vs: Array[Int]): BitSet = {
    val b = new BitSet(l.numVertices)
    vs.foreach(i => for (e <- l.adjOff(i) until l.adjOff(i + 1)) b.set(l.adjDst(e)))
    b
  }
}
