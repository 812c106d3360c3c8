package repro.core

import java.util.BitSet
import repro.graph.{EdgeLayout, PropertyGraph, VertexMap}

/** A system that [[Engine.run]] runs: which vertices each iteration
  * gathers, whether it pushes, how it charges scatter and when it stops.
  */
sealed abstract class Schedule(val name: String)

object Schedule {

  /** PowerGraph-like synchronous GAS: every iteration gathers every vertex
    * over all its in-edges and scatters every out-edge without change
    * detection (no active-vertex tracking, cf. the paper's SPARK-3427
    * citation). The most redundant baseline.
    */
  case object PowerG extends Schedule("PowerG")

  /** PowerLyra-like active-list GAS: a min/max iteration gathers only the
    * vertices signalled by an updated in-neighbour, and scatter is charged
    * for the updated vertices' out-edges. PR-family programs gather every
    * vertex, as the static all-active programs of both GAS systems do.
    */
  case object PowerL extends Schedule("PowerL")

  /** Gemini: adaptive push/pull over an active list, pulling while the
    * active vertices' out-edges exceed [[Engine.DenseFraction]] of |E|.
    */
  case object Gemini extends Schedule("Gemini")

  /** SLFE: Gemini plus the redundancy-reduction rulers of `rrg`. */
  final case class Slfe(rrg: RRGuidance) extends Schedule("SLFE")
}

/** The one iteration loop of every system, over Gemini's dense vertex
  * arrays (paper §3.1): values are one `Array[Double]` updated in place,
  * vertex sets are `BitSet`s, and the rulers are `Array[Int]`s. Each
  * iteration picks its work from the [[Schedule]], runs one
  * [[EdgeOps.pull]] or [[EdgeOps.push]], applies the messages, records an
  * [[IterationStat]] and tests for the end.
  *
  * - Min/max programs run to their fixpoint. A vertex applies only the
  *   messages it received and keeps its value unless they improve it.
  *   SLFE pulls each vertex once, at exactly its `lastIter` ("start late",
  *   the paper's `pullEdge_singleRuler`), then pushes. Every pull→push
  *   switch reactivates all vertices (Alg. 3 lines 2-4), and a run whose
  *   pulls skipped vertices ends only after an all-active push changes
  *   nothing (Theorem 1).
  * - Arithmetic programs always pull (paper footnote 2), for at most
  *   `maxIters` iterations or, with `earlyStop`, until no vertex changes.
  *   A computed vertex always takes its candidate, so changes below eps
  *   still accumulate. SLFE computes a vertex only while its stable streak
  *   is below its `lastIter`, clamped to >= 1 so that pure sources apply
  *   once ("finish early", `pullEdge_multiRuler` and Alg. 5's
  *   `vertexUpdate`).
  */
object Engine {

  /** Gemini pulls when the active out-edge volume exceeds this fraction of
    * |E| (the |E|/20 switch of Ligra and Gemini).
    */
  val DenseFraction = 0.05

  /** Iteration cap of a min/max run, which fails if it does not converge
    * within it.
    */
  val MaxIters = 200

  def run(g: PropertyGraph, prog: VertexProgram, schedule: Schedule,
          maxIters: Int = MaxIters, earlyStop: Boolean = false): RunResult = {
    import Schedule._
    val t0 = System.nanoTime()
    val l = g.layout
    val n = l.numVertices
    val values = Array.tabulate(n)(i => prog.initValue(l.ids(i)))
    var active = indexSet(n)(i => prog.initActive(l.ids(i))) // updated by the last iteration
    val lastIter = schedule match {
      case Slfe(rrg) => rrg.lastIterOver(l, g.name)
      case _         => new Array[Int](n)
    }
    val maxLastIter = lastIter.foldLeft(0)(math.max) // beyond it an SLFE min/max run only pushes
    val stable = new Array[Int](n) // unchanged applies in a row
    val signals = schedule == PowerL && !prog.arith
    var signalled = if (signals) { val b = outNbrs(l, active); b.or(active); b } else null
    val stats = Vector.newBuilder[IterationStat]
    var iter = 0
    var pulled = false      // the last iteration pulled
    var verifying = false   // this push is the final all-active fixpoint check
    var needsVerify = false // a pull skipped vertices since the last all-active push
    var done = false
    while (!done && iter < maxIters) {
      iter += 1
      val it0 = System.nanoTime()
      val push = !prog.arith && (schedule match {
        case Gemini  => outEdges(l, active) <= DenseFraction * l.numEdges
        case Slfe(_) => verifying || iter > maxLastIter
        case _       => false
      })
      // Alg. 3 lines 2-4: a vertex a pull skipped may hold updates its
      // successors never read, so a push after a pull starts all-active.
      if (push && (pulled || verifying)) { active = indexSet(n)(_ => true); needsVerify = false }
      // Destinations that gather: all, PowerL's signalled set, start-late's
      // scheduled ones, or finish-early's not-yet-frozen ones.
      val dsts = if (push) None else (schedule, prog.arith) match {
        case (PowerL, false)  => Some(signalled)
        case (Slfe(_), false) => Some(indexSet(n)(lastIter(_) == iter))
        case (Slfe(_), true)  => Some(indexSet(n)(i => stable(i) < math.max(lastIter(i), 1)))
        case _                => None
      }
      val msgs =
        if (push) EdgeOps.push(g, prog, values, active.stream.toArray)
        else EdgeOps.pull(g, prog, values, dsts)
      val computed = if (push) msgs.receivers else dsts.fold(n)(_.cardinality)
      if (!push && computed < n) needsVerify = true
      active = applyAll(prog, values, stable, msgs, dsts)
      val updates = active.cardinality.toLong
      val scatter = schedule match {
        case PowerG => l.numEdges
        case PowerL => outEdges(l, active)
        case _      => 0L
      }
      val mode = schedule match {
        case PowerG => "gas-dense"
        case PowerL => "gas-signaled"
        case _      => if (push) "push" else "pull"
      }
      stats += IterationStat(iter, mode, computed, msgs.edges + scatter, updates,
        (System.nanoTime() - it0) / 1000000L)
      if (signals) signalled = outNbrs(l, active)
      // Quiescence is exact (Theorem 1) unless a pull skipped vertices: then
      // an all-active push must change nothing first.
      done =
        if (prog.arith) earlyStop && updates == 0
        else if (signals) signalled.isEmpty
        else updates == 0 && !needsVerify
      verifying = !prog.arith && updates == 0 && !done
      pulled = !push
    }
    require(done || prog.arith,
      s"${schedule.name}/${prog.name} on ${g.name} hit maxIters=$maxIters before converging")
    RunResult(schedule.name, prog.name, g.name, VertexMap.dense(l.ids, values), stats.result(),
      (System.nanoTime() - t0) / 1000000L)
  }

  /** Applies `msgs` in place to the destinations `dsts` (None: all): a
    * min/max vertex only if it received a message, an arithmetic one always
    * (with the program's no-message aggregate if none arrived). Returns the
    * vertices whose value changed.
    */
  private def applyAll(prog: VertexProgram, values: Array[Double], stable: Array[Int],
                       msgs: Messages, dsts: Option[BitSet]): BitSet = {
    val n = values.length
    val updated = new BitSet(n)
    val d = dsts.orNull
    var i = if (d == null) 0 else d.nextSetBit(0)
    while (i >= 0 && i < n) {
      val got = msgs.received(i)
      if (got || prog.arith) {
        val cand = prog.applyFn(if (got) msgs.agg(i) else prog.noMsgAgg, values(i))
        if (prog.improves(cand, values(i))) { updated.set(i); values(i) = cand; stable(i) = 0 }
        else { if (prog.arith) values(i) = cand; stable(i) += 1 }
      }
      i = if (d == null) i + 1 else d.nextSetBit(i + 1)
    }
    updated
  }

  private def indexSet(n: Int)(p: Int => Boolean): BitSet = {
    val b = new BitSet(n)
    for (i <- 0 until n if p(i)) b.set(i)
    b
  }

  /** Out-edges of the vertices in `vs`. */
  private def outEdges(l: EdgeLayout, vs: BitSet): Long =
    vs.stream.mapToLong(l.outDeg(_).toLong).sum

  /** Out-neighbours of the vertices in `vs`. */
  private def outNbrs(l: EdgeLayout, vs: BitSet): BitSet = {
    val b = new BitSet(l.numVertices)
    vs.stream.forEach(i => for (e <- l.adjOff(i) until l.adjOff(i + 1)) b.set(l.adjDst(e)))
    b
  }
}
