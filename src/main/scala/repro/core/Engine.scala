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
  * arrays (paper §3.1): values are an `Array[Double]`, vertex sets are
  * `BitSet`s, and the rulers are `Array[Int]`s. Each iteration picks its
  * work from the [[Schedule]], runs one [[EdgeOps.pull]] or
  * [[EdgeOps.push]], applies the messages, records an [[IterationStat]]
  * and tests for the end. A min/max apply updates the values in place, on
  * the driver: applied inside a task, it would let one chunk read a value
  * another chunk changed in the same iteration, and move the counts. An
  * arithmetic pull applies inside its chunk tasks instead
  * ([[EdgeOps.pullApply]]), writing a second array that is swapped in after
  * the pass (Gemini's `curr`/`next`), and keeps SLFE's finish-early streaks
  * there too, so an arithmetic iteration has no serial pass over the
  * vertices.
  *
  * - Min/max programs run to their fixpoint. A vertex applies only the
  *   messages it received and keeps its value unless they improve it.
  *   SLFE pulls each vertex once, at exactly its `lastIter` ("start late",
  *   the paper's `pullEdge_singleRuler`), then pushes. Every pull→push
  *   switch reactivates all vertices (Alg. 3 lines 2-4), and a run whose
  *   pulls skipped vertices ends only after an all-active push changes
  *   nothing (Theorem 1).
  * - Arithmetic programs always pull (paper footnote 2), until an
  *   iteration changes no vertex by more than the program's eps, or for at
  *   most `maxIters` iterations. A computed vertex always takes its
  *   candidate, so changes below eps still accumulate. SLFE computes a
  *   vertex only while its stable streak is below its `lastIter`, which is
  *   at least 1, so that pure sources apply once ("finish early",
  *   `pullEdge_multiRuler` and Alg. 5's `vertexUpdate`); each pull's chunk
  *   tasks keep the streaks of their own destinations.
  *
  * `run` with [[Schedule.Slfe]] is the paper's `edgeProc(pushFunc,
  * pullFunc, activeVerts, Ruler)` API (Table 3): the program supplies the
  * functions, and the guidance the rulers.
  *
  * The driver's share of an iteration follows its frontier, as in Ligra's
  * `VertexSubset` and Gemini's sparse mode: the messages land in one
  * [[Messages]] buffer per run, a min/max apply walks only their receivers,
  * an arithmetic pull lists only the vertices it changed, and start-late's
  * scheduled set is a slice of the guidance's vertex order by `lastIter`,
  * sorted once per guidance ([[Rulers]]).
  */
object Engine {

  /** Gemini pulls when the active out-edge volume exceeds this fraction of
    * |E| (the |E|/20 switch of Ligra and Gemini).
    */
  val DenseFraction = 0.05

  /** Default iteration cap: a min/max run fails if it does not converge
    * within it, an arithmetic run stops there.
    */
  val MaxIters = 200

  def run(g: PropertyGraph, prog: VertexProgram, schedule: Schedule,
          maxIters: Int = MaxIters): RunResult = {
    import Schedule._
    val t0 = System.nanoTime()
    val l = g.layout
    val n = l.numVertices
    var values = new Array[Double](n)
    // A min/max run's frontier: the vertices the last iteration updated. An
    // arithmetic run pulls every vertex and keeps none.
    val active = if (prog.arith) null else new BitSet(n)
    var i = 0
    while (i < n) {
      values(i) = prog.initValue(l.ids(i))
      if (active != null && prog.initActive(l.ids(i))) active.set(i)
      i += 1
    }
    // SLFE's rulers, resolved once per guidance; the other systems have none.
    val rulers = schedule match {
      case Slfe(rrg) => rrg.rulers(g)
      case _         => null
    }
    val scheduled = new BitSet(n)
    // Finish-early's stable streaks, kept by the pulls; `lastIter` is the
    // threshold at which a vertex freezes, for good.
    val streaks =
      if (prog.arith && rulers != null) Some(new Streaks(new Array[Int](n), rulers.lastIter)) else None
    val signals = schedule == PowerL && !prog.arith
    val signalled = new BitSet(n)
    if (signals) { outNbrs(l, active, signalled); signalled.or(active) }
    // An arithmetic pull's candidates; it becomes `values` after the pass.
    var spare = if (prog.arith) values.clone() else null
    val msgs = new Messages(n)
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
        case Slfe(_) => verifying || iter > rulers.maxLastIter
        case _       => false
      })
      // Alg. 3 lines 2-4: a vertex a pull skipped may hold updates its
      // successors never read, so a push after a pull starts all-active.
      if (push && (pulled || verifying)) { active.set(0, n); needsVerify = false }
      // Min/max destinations that gather: all, PowerL's signalled set or
      // start-late's scheduled ones.
      val dsts = if (push || prog.arith) None else schedule match {
        case PowerL  => Some(signalled)
        case Slfe(_) =>
          scheduled.clear()
          rulers.schedule(iter, scheduled)
          Some(scheduled)
        case _       => None
      }
      val e0 = System.nanoTime()
      // An arithmetic pull counts the vertices it computed: finish-early
      // skips the frozen ones.
      val applied =
        if (prog.arith) EdgeOps.pullApply(g, prog, values, spare, streaks, msgs)
        else if (push) { EdgeOps.push(g, prog, values, members(active), msgs); 0 }
        else { EdgeOps.pull(g, prog, values, dsts, into = msgs); 0 }
      val edgeNanos = System.nanoTime() - e0
      val computed =
        if (prog.arith) applied else if (push) msgs.receivers else dsts.fold(n)(_.cardinality)
      if (!push && computed < n) needsVerify = true
      // An arithmetic pull's receivers are the vertices it changed.
      if (prog.arith) { val t = values; values = spare; spare = t }
      else { active.clear(); applyReceivers(prog, values, msgs, active) }
      val updates = if (prog.arith) msgs.receivers.toLong else active.cardinality.toLong
      val scatter = schedule match {
        case PowerG => l.numEdges
        case PowerL => if (prog.arith) receiverOutEdges(l, msgs) else outEdges(l, active)
        case _      => 0L
      }
      val mode = schedule match {
        case PowerG => "gas-dense"
        case PowerL => "gas-signaled"
        case _      => if (push) "push" else "pull"
      }
      if (signals) { signalled.clear(); outNbrs(l, active, signalled) }
      // Quiescence is exact (Theorem 1) unless a pull skipped vertices: then
      // an all-active push must change nothing first.
      done =
        if (prog.arith) updates == 0
        else if (signals) signalled.isEmpty
        else updates == 0 && !needsVerify
      verifying = !prog.arith && updates == 0 && !done
      pulled = !push
      stats += IterationStat(iter, mode, computed, msgs.edges + scatter, updates,
        System.nanoTime() - it0, edgeNanos)
    }
    require(done || prog.arith,
      s"${schedule.name}/${prog.name} on ${g.name} hit maxIters=$maxIters before converging")
    RunResult(schedule.name, prog.name, g.name, VertexMap.dense(l.ids, values), stats.result(),
      System.nanoTime() - t0)
  }

  /** Applies the messages of a min/max pass in place, walking their
    * receivers: a vertex keeps its value unless its aggregate improves it.
    * Adds the vertices whose value changed to `updated`.
    */
  private def applyReceivers(prog: VertexProgram, values: Array[Double], msgs: Messages,
                             updated: BitSet): Unit = {
    var k = 0
    while (k < msgs.receivers) {
      val i = msgs.receiver(k)
      val cand = prog.applyFn(msgs.agg(i), values(i))
      if (prog.improves(cand, values(i))) { updated.set(i); values(i) = cand }
      k += 1
    }
  }

  /** The members of `vs`, ascending. */
  private def members(vs: BitSet): Array[Int] = {
    val out = new Array[Int](vs.cardinality)
    var k = 0
    var i = vs.nextSetBit(0)
    while (i >= 0) { out(k) = i; k += 1; i = vs.nextSetBit(i + 1) }
    out
  }

  /** Out-edges of the receivers of `msgs`. */
  private def receiverOutEdges(l: EdgeLayout, msgs: Messages): Long = {
    var sum = 0L
    var k = 0
    while (k < msgs.receivers) { sum += l.outDeg(msgs.receiver(k)); k += 1 }
    sum
  }

  /** Out-edges of the vertices in `vs`. */
  private def outEdges(l: EdgeLayout, vs: BitSet): Long = {
    var sum = 0L
    var i = vs.nextSetBit(0)
    while (i >= 0) { sum += l.outDeg(i); i = vs.nextSetBit(i + 1) }
    sum
  }

  /** Adds the out-neighbours of the vertices in `vs` to `into`. */
  private def outNbrs(l: EdgeLayout, vs: BitSet, into: BitSet): Unit = {
    var i = vs.nextSetBit(0)
    while (i >= 0) {
      var e = l.adjOff(i)
      while (e < l.adjOff(i + 1)) { into.set(l.adjDst(e)); e += 1 }
      i = vs.nextSetBit(i + 1)
    }
  }
}
