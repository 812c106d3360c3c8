package repro.bench

import java.util.BitSet
import repro.apps.Apps
import repro.core.{EdgeOps, Messages, Streaks, VertexProgram}
import repro.graph.GraphGen

/** The edge layer alone: microseconds per call of `EdgeOps.pull` and
  * `EdgeOps.push` into one reused [[Messages]] buffer, as the engines call
  * them, for SSSP (unit weights), WP, PR and TR on the PK and FS stand-ins.
  * Each program pulls into all destinations and into every other one, and
  * pushes from its root and from every vertex; a Sum program also pulls
  * with its apply (`EdgeOps.pullApply`, the call its engine iterations
  * make), over every vertex and with finish-early streaks that keep every
  * other vertex frozen (the even ones sit at their threshold, the odd ones
  * never reach theirs). Every case of every program is first run [[Warm]] times, so that
  * each loop has seen every program it serves, as in a benchmark pass; a
  * cell is then the median over [[Rounds]] rounds of the mean of [[Calls]]
  * calls. Values are the programs' initial ones. Run it alone with
  * `sbt -batch "bench/testOnly repro.bench.EdgeKernelBench"`.
  */
class EdgeKernelBench extends BenchBase {

  private val Warm = 300
  private val Rounds = 15
  private val Calls = 40

  private final case class Case(name: String, call: () => Unit)

  test("Edge kernels: microseconds per pull and push call") {
    val preps = GraphGen.datasets.filter(s => s.name == "PK" || s.name == "FS").map(Harness.prepare)
    val rows = for (p <- preps; prog <- programs(p.root)) yield {
      val g = p.g
      val n = g.numVertices.toInt
      val values = Array.tabulate(n)(i => prog.initValue(g.vertexIds(i)))
      val next = values.clone()
      val half = new BitSet(n)
      for (i <- 0 until n by 2) half.set(i)
      val all = Array.range(0, n)
      val buf = new Messages(n)
      val cases = Seq(
        Case("pull-all", () => EdgeOps.pull(g, prog, values, None, buf)),
        Case("pull-half", () => EdgeOps.pull(g, prog, values, Some(half), buf)),
        Case("push-one", () => EdgeOps.push(g, prog, values, Array(g.layout.indexOf(p.root)), buf)),
        Case("push-all", () => EdgeOps.push(g, prog, values, all, buf))) ++
        (if (prog.arith) {
          val halfFrozen = new Streaks(Array.tabulate(n)(i => 1 - i % 2),
            Array.tabulate(n)(i => if (i % 2 == 0) 1 else Int.MaxValue))
          Seq(Case("apply-all", () => EdgeOps.pullApply(g, prog, values, next, None, buf)),
            Case("apply-half-frozen", () => EdgeOps.pullApply(g, prog, values, next, Some(halfFrozen), buf)))
        } else Nil)
      (s"${p.spec.name} ${prog.name}", cases)
    }
    for ((_, cases) <- rows; c <- cases; _ <- 1 to Warm) c.call()

    val names = Seq("pull-all", "pull-half", "push-one", "push-all", "apply-all", "apply-half-frozen")
    emit("== Edge kernels: microseconds per call, reused Messages ==")
    emit(f"${"cell"}%-8s " + names.map(s => f"$s%17s").mkString(" "))
    for ((cell, cases) <- rows) {
      val us = cases.map(c => c.name -> micros(c.call)).toMap
      emit(f"$cell%-8s " + names.map(s => us.get(s).fold(f"${"-"}%17s")(u => f"$u%17.1f")).mkString(" "))
    }
  }

  private def programs(root: Long): Seq[VertexProgram] = Seq(
    Apps.sssp(root, unitWeight = true), Apps.wp(root),
    Apps.pagerank(eps = Harness.ArithEps), Apps.tunkrank(eps = Harness.ArithEps))

  /** Median over [[Rounds]] of the mean microseconds of [[Calls]] calls. */
  private def micros(call: () => Unit): Double = {
    val rounds = Seq.fill(Rounds) {
      val t0 = System.nanoTime()
      for (_ <- 1 to Calls) call()
      (System.nanoTime() - t0) / 1e3 / Calls
    }
    rounds.sorted.apply(Rounds / 2)
  }
}
