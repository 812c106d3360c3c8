package repro.graph

import repro.{SparkSpec, TestUtil}

/** The partitioned CSR/CSC edge blocks the engines run on. */
class EdgeLayoutSpec extends SparkSpec {
  import TestUtil._

  override def beforeAll(): Unit = { super.beforeAll(); tuneForIteration(spark) }

  private def graphs: Seq[PropertyGraph] = Seq(
    PropertyGraph(GraphGen.rmat(spark, 7, 400, 31).repartition(5), "rmat"),
    PropertyGraph(GraphGen.uniform(spark, 60, 250, 32).repartition(3), "uniform"),
    figure1(spark).symmetrize,
  )

  test("chunks partition the dense index exactly and hold every edge once") {
    graphs.foreach { g =>
      val l = g.layout
      val blocks = l.blocks.collect()
      assert(blocks.length == l.numChunks && l.numChunks == g.edges.rdd.getNumPartitions, g.name)
      assert(blocks.head.lo == 0 && blocks.last.hi == l.numVertices, g.name)
      blocks.sliding(2).foreach { case Array(a, b) => assert(a.hi == b.lo, g.name); case _ => }
      assert(blocks.map(_.numEdges.toLong).sum == g.numEdges, g.name)
      assert(l.chunkStarts.toSeq == blocks.map(_.lo).toSeq :+ l.numVertices, g.name)
    }
  }

  test("an edgeless graph has an empty layout that the engines accept") {
    val g = graph(spark, Seq.empty)
    assert(g.numVertices == 0 && g.numEdges == 0 && g.layout.blocks.count() == g.layout.numChunks)
    val r = repro.core.SlfeEngine.edgeProcMinMax(g, repro.apps.Apps.cc, None, "Gemini")
    assert(r.values.isEmpty && r.totalComputations == 0)
  }

  test("each block's CSC and CSR hold exactly the edges into its chunk") {
    graphs.foreach { g =>
      val l = g.layout
      val edges = collectEdges(g).map { case (s, d, w) => (l.indexOf(s), l.indexOf(d), w) }
      l.blocks.collect().foreach { b =>
        val csc = for (d <- b.lo until b.hi; e <- b.inOff(d - b.lo) until b.inOff(d - b.lo + 1))
          yield (b.inSrc(e), d, b.inW(e))
        val csr = for (s <- 0 until l.numVertices; e <- b.outOff(s) until b.outOff(s + 1))
          yield (s, b.outDst(e), b.outW(e))
        val mine = edges.filter { case (_, d, _) => d >= b.lo && d < b.hi }
        assert(csc.sorted == mine.sorted && csr.sorted == mine.sorted, g.name)
        // Sources ascend within each CSC run, destinations within each CSR run.
        for (d <- b.lo until b.hi) {
          val run = b.inSrc.slice(b.inOff(d - b.lo), b.inOff(d - b.lo + 1))
          assert(run.toSeq == run.sorted.toSeq)
        }
      }
    }
  }

  test("chunks balance in-edges: no chunk exceeds its share by more than one vertex's in-degree") {
    val g = PropertyGraph(GraphGen.rmat(spark, 9, 3000, 33).repartition(4), "rmat")
    val l = g.layout
    val loads = l.blocks.collect().map(_.numEdges)
    assert(loads.max <= g.numEdges / 4 + 1 + l.inDeg.max, loads.toSeq)
  }

  test("degree and adjacency views match the edge list") {
    val g = graphs.head
    val edges = collectEdges(g)
    val out = edges.groupBy(_._1).map { case (s, es) => s -> es.map(_._2).sorted }
    g.vertexIds.foreach { v =>
      assert(g.outNbrs(v).toSeq == out.getOrElse(v, Seq.empty))
      assert(g.outDeg(v) == out.get(v).fold(0)(_.size))
      assert(g.inDeg(v) == edges.count(_._2 == v))
    }
  }

  test("vertex ids outside (-2^53, 2^53) are rejected with a clear message") {
    for (bad <- Seq(1L << 53, Long.MaxValue, -(1L << 53))) {
      val g = graph(spark, Seq((1L, bad, 1.0)))
      val e = intercept[IllegalArgumentException](g.layout)
      assert(e.getMessage.contains(s"vertex id $bad") && e.getMessage.contains("2^53"), e.getMessage)
    }
    assert(graph(spark, Seq((0L, (1L << 53) - 1, 1.0))).numVertices == 2)
  }

  test("unpersist drops the edge blocks from the persistent RDDs") {
    val g = PropertyGraph(GraphGen.uniform(spark, 20, 40, 34)).cached()
    val (id, m) = (g.layout.blocks.id, g.numEdges)
    assert(spark.sparkContext.getPersistentRDDs.contains(id))
    g.unpersist()
    assert(!spark.sparkContext.getPersistentRDDs.contains(id))
    assert(g.numEdges == m) // a later use builds the layout again
    g.unpersist()
  }

  test("VertexMap is a read-only view with Map semantics") {
    val ids = Array(2L, 5L, 9L)
    val m = VertexMap.dense(ids, Array(0.5, 1.5, 2.5))
    assert(m == Map(2L -> 0.5, 5L -> 1.5, 9L -> 2.5) && m.size == 3)
    assert(m.get(4L).isEmpty && m(9L) == 2.5 && m.keySet == Set(2L, 5L, 9L))
    val sparse = new VertexMap[Int](ids, i => i, i => i != 1)
    assert(sparse == Map(2L -> 0, 9L -> 2) && !sparse.contains(5L) && sparse.size == 2)
    assert(m.updated(4L, 0.0).size == 4 && m.removed(2L) == Map(5L -> 1.5, 9L -> 2.5))
  }
}
