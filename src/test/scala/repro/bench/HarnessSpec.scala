package repro.bench

import repro.{SparkSpec, TestUtil}
import repro.apps.Apps
import repro.core.{Engine, Schedule}
import repro.graph.GraphGen.GraphSpec

class HarnessSpec extends SparkSpec {

  private val spec = GraphSpec("S9", 9, 1500L, 7, 0.0, 0.0, 1, "RMAT")

  test("set-up starts no Spark job") {
    val (p, jobs) = TestUtil.sparkJobs(spark)(Harness.prepare(spec))
    assert(jobs == 0)
    assert(p.g.numEdges > 0 && p.sym.numEdges > p.g.numEdges && p.rrgSym.maxLevel > 0)
  }

  test("start-late's chunk loads are the edges that each SLFE pull gathers") {
    val p = Harness.prepare(spec)
    val l = p.g.layout
    assert(l.numChunks >= 4)
    val loads = Harness.levelChunkLoads(p.g, p.rrgDir)
    // Brute force over the edge list: an edge loads its destination's chunk
    // at the destination's lastIter.
    val brute = Array.ofDim[Long](loads.length, l.numChunks)
    val edges = l.edgeList
    for (d <- edges.dst) {
      val i = l.indexOf(d)
      val c = (0 until l.numChunks).find(c => l.chunkStarts(c) <= i && i < l.chunkStarts(c + 1)).get
      brute(p.rrgDir.lastIterOf(d))(c) += 1
    }
    assert(loads.map(_.toSeq).toSeq == brute.map(_.toSeq).toSeq)
    val r = Engine.run(p.g, Apps.sssp(p.root, unitWeight = true), Schedule.Slfe(p.rrgDir))
    val pulls = r.stats.filter(_.mode == "pull")
    assert(pulls.size > 1)
    for (s <- pulls) assert(s.edgeComputations == loads(s.iter).sum, s"iteration ${s.iter}")
  }

  test("every table printer emits its header and one row per graph, system or app") {
    def lines(printer: (Seq[GraphSpec], String => Unit) => Unit): Vector[String] = {
      val out = Vector.newBuilder[String]
      printer(Seq(spec), out += _)
      out.result()
    }
    def rowsStart(rows: Seq[String], keys: Seq[String]): Unit = {
      assert(rows.size == keys.size, rows.mkString("\n"))
      rows.zip(keys).foreach { case (row, key) => assert(row.startsWith(key), row) }
    }
    val t4 = lines(Harness.table4)
    rowsStart(t4, Seq("== Table 4", "Graph", "S9"))
    val t2 = lines(Harness.table2)
    rowsStart(t2, Seq("== Table 2", "System", "PowerG", "PowerL", "Gemini", "SLFE"))
    val t5 = lines(Harness.table5)
    rowsStart(t5, Seq("== Table 5", "   (SSSP", "-- S9", "SSSP", "CC", "WP", "PR", "TR",
      "GEOMEAN speedup", "GEOMEAN SLFE/Gemini wall time"))
    val overhead = lines(Harness.overhead)
    rowsStart(overhead, Seq("== Preprocessing overhead", "Graph", "S9"))
    val balance = lines(Harness.balance)
    rowsStart(balance, Seq("== Balance", "S9"))
    for (col <- Seq(" chunkImb=", " rrChunkImb=", " stealBound=", " rf(PowerG)=", " rf(PowerL)="))
      assert(balance(1).contains(col), balance(1))
  }
}
