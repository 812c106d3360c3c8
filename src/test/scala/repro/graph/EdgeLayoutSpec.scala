package repro.graph

import org.scalacheck.{Gen, Prop}
import repro.{SparkSpec, TestUtil}

/** The partitioned CSR/CSC edge blocks the engines run on. */
class EdgeLayoutSpec extends SparkSpec {
  import TestUtil._

  /** The test graphs, each with the edges it holds by definition: the
    * generators' output, or the by-id oracle's symmetrization of figure 1.
    */
  private def withInputs: Seq[(PropertyGraph, EdgeList)] = {
    val (rmat, uniform) = (GraphGen.rmatEdges(7, 400, 31), GraphGen.uniformEdges(60, 250, 32))
    Seq(PropertyGraph("rmat", chunks = 5)(rmat) -> rmat, PropertyGraph("uniform", chunks = 3)(uniform) -> uniform,
      figure1().symmetrize -> oracleSymmetrize(edgeList(figure1Edges)))
  }

  private def graphs: Seq[PropertyGraph] = withInputs.map(_._1)

  test("chunks partition the dense index exactly and hold every edge once") {
    // A symmetrized graph has its source's chunk count.
    val chunks = Map("rmat" -> 5, "uniform" -> 3, "fig1-sym" -> 4)
    graphs.foreach { g =>
      val l = g.layout
      val blocks = l.blocks
      assert(blocks.length == l.numChunks && l.numChunks == chunks(g.name), g.name)
      val cut = repro.partition.Chunking.partition(l.ids.toSeq, g.inDeg, l.numChunks)
      assert(l.chunkStarts.toSeq == cut.scanLeft(0)(_ + _.vertices.size), g.name)
      assert(blocks.head.lo == 0 && blocks.last.hi == l.numVertices, g.name)
      blocks.sliding(2).foreach { case Array(a, b) => assert(a.hi == b.lo, g.name); case _ => }
      assert(blocks.map(_.numEdges.toLong).sum == g.numEdges, g.name)
      assert(l.chunkStarts.toSeq == blocks.map(_.lo).toSeq :+ l.numVertices, g.name)
    }
  }

  test("a symmetrized graph is laid out in its source's chunk count") {
    val spec = GraphGen.GraphSpec("R9", 9, 1500L, 35, 0.0, 0.0, 1, "RMAT")
    for (g <- Seq(GraphGen.build(spec), GraphGen.build(spec, partitions = 3),
                  PropertyGraph(chunks = 6)(GraphGen.uniformEdges(40, 120, 36)))) {
      assert(g.symmetrize.layout.numChunks == g.layout.numChunks, g.name)
      assert(g.symmetrize.numEdges > g.numEdges, g.name)
    }
  }

  test("laying out a test graph starts no Spark job") {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    val (_, jobs) = sparkJobs(spark)(Seq(graph(Seq((0L, 1L, 1.0), (1L, 2L, 2.0)), chunks = 2),
      PropertyGraph(chunks = 3)(GraphGen.rmatEdges(7, 300, 38)), figure1().symmetrize))
    assert(jobs == 0 && sc.getPersistentRDDs.keySet == before)
  }

  private def weightBits(ws: Array[Double]): Seq[Long] = ws.toSeq.map(java.lang.Double.doubleToRawLongBits)

  /** `a` and `b` hold equal arrays, doubles compared bit for bit. */
  private def sameLayout(a: EdgeLayout, b: EdgeLayout): Boolean = {
    def ints(f: EdgeLayout => Array[Int]) = f(a).sameElements(f(b))
    a.ids.sameElements(b.ids) && ints(_.outDeg) && ints(_.inDeg) && ints(_.adjOff) && ints(_.adjDst) &&
      ints(_.chunkStarts) && a.blocks.length == b.blocks.length && a.blocks.zip(b.blocks).forall { case (x, y) =>
        x.lo == y.lo && x.hi == y.hi && x.inOff.sameElements(y.inOff) && x.inSrc.sameElements(y.inSrc) &&
          weightBits(x.inW) == weightBits(y.inW) && x.outOff.sameElements(y.outOff) && x.outDst.sameElements(y.outDst) &&
          weightBits(x.outW) == weightBits(y.outW) && x.outDeg.sameElements(y.outDeg)
      }
  }

  /** `g.symmetrize`'s layout equals the by-id oracle's edges laid out anew. */
  private def symmetrizesLikeOracle(g: PropertyGraph): Boolean =
    sameLayout(g.symmetrize.layout, EdgeLayout.build(oracleSymmetrize(g.layout.edgeList), g.layout.numChunks, "oracle"))

  test("symmetrizing a layout equals laying out the by-id symmetrized edges") {
    checkProp(Prop.forAll(Gen.choose(1, 9), Gen.choose(0L, 300L), Gen.choose(0L, 1000L), Gen.choose(1, 5)) {
      (scale: Int, nEdges: Long, seed: Long, chunks: Int) =>
        symmetrizesLikeOracle(PropertyGraph("rmat", chunks)(GraphGen.rmatEdges(scale, nEdges, seed))) &&
          symmetrizesLikeOracle(PropertyGraph("uniform", chunks)(GraphGen.uniformEdges(1L << scale, nEdges, seed)))
    }, minSuccessful = 20)
    val otherNaN = java.lang.Double.longBitsToDouble(0x7ff8000000000abcL)
    val literals = Seq(
      // 1 -> 2 twice with two weights, 2 -> 1 with a third, and a self-loop.
      Seq((1L, 2L, 5.0), (1L, 2L, 7.0), (2L, 1L, 3.0), (2L, 3L, 1.0), (4L, 4L, 2.0)),
      // Signed zeros and NaNs, which SQL's distinct treats as equal.
      Seq((1L, 2L, -0.0), (2L, 1L, 0.0), (1L, 2L, 0.0), (3L, 1L, Double.NaN), (1L, 3L, otherNaN), (3L, 1L, otherNaN)),
      Seq.empty)
    for (edges <- literals; chunks <- 1 to 5)
      assert(symmetrizesLikeOracle(graph(edges, chunks)), s"$edges in $chunks chunks")
  }

  test("a layout does not depend on the order of its edges") {
    // No pair repeats, so no two edges tie in either order.
    val rnd = new scala.util.Random(44)
    for (e <- Seq(GraphGen.rmatEdges(8, 600, 45), GraphGen.uniformEdges(50, 300, 46)); chunks <- 1 to 4) {
      val order = rnd.shuffle(e.src.indices.toVector)
      val shuffled = new EdgeList(order.map(e.src).toArray, order.map(e.dst).toArray, order.map(e.weight).toArray)
      assert(sameLayout(EdgeLayout.build(shuffled, chunks, "shuffled"), EdgeLayout.build(e, chunks, "sorted")), chunks)
    }
  }

  test("a literal graph gets exactly the chunk count it asks for") {
    val edges = Seq((0L, 1L, 1.0), (1L, 2L, 1.0), (2L, 0L, 1.0))
    for (k <- 1 to Runtime.getRuntime.availableProcessors + 3) {
      val l = graph(edges, chunks = k).layout
      assert(l.numChunks == k && l.blocks.length == k && l.blocks.map(_.numEdges).sum == 3, s"$k chunks")
    }
  }

  test("the layout's edge list is the graph's edges") {
    val s = spark
    import s.implicits._
    graphs.foreach { g =>
      val rows = g.edges.select($"src", $"dst", $"weight").as[(Long, Long, Double)].collect().toSeq
      assert(rows == collectEdges(g), g.name)
      assert(g.edges.rdd.getNumPartitions == 1, g.name)
    }
  }

  test("an edgeless graph has an empty layout that the engines accept") {
    val g = graph(Seq.empty, chunks = 1)
    assert(g.numVertices == 0 && g.numEdges == 0 && g.layout.blocks.length == g.layout.numChunks)
    val r = repro.core.Engine.run(g, repro.apps.Apps.cc, repro.core.Schedule.Gemini)
    assert(r.values.isEmpty && r.totalComputations == 0)
  }

  test("each block's CSC and CSR hold exactly the edges into its chunk") {
    withInputs.foreach { case (g, input) =>
      val l = g.layout
      val edges = input.src.indices.map(e => (l.indexOf(input.src(e)), l.indexOf(input.dst(e)), input.weight(e)))
      assert(edges.size == l.numEdges && edges.forall(e => e._1 >= 0 && e._2 >= 0), g.name)
      l.blocks.foreach { b =>
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
    val g = PropertyGraph("rmat", chunks = 4)(GraphGen.rmatEdges(9, 3000, 33))
    val l = g.layout
    val loads = l.blocks.map(_.numEdges)
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
      val e = intercept[IllegalArgumentException](graph(Seq((1L, bad, 1.0)), chunks = 1))
      assert(e.getMessage.contains(s"vertex id $bad") && e.getMessage.contains("2^53"), e.getMessage)
    }
    assert(graph(Seq((0L, (1L << 53) - 1, 1.0)), chunks = 1).numVertices == 2)
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

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** `values` packed, checked to read back bit for bit. */
  private def roundTrip(values: Array[Double]): Int = {
    val p = VertexMap.pack(values)
    values.indices.foreach(i => assert(bits(p.read(i)) == bits(values(i)), s"index $i of ${values.length}"))
    val ids = Array.tabulate(values.length)(i => 3L * i - 7)
    val m = VertexMap.dense(ids, values)
    assert(m.size == values.length && ids.indices.forall(i => bits(m(ids(i))) == bits(values(i))))
    p.bytesPerValue
  }

  test("VertexMap.dense round-trips every bit pattern") {
    val rnd = new scala.util.Random(7)
    val oddNaN = java.lang.Double.longBitsToDouble(0x7ff8000000000abcL)
    val special = Array(Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN, oddNaN,
      -0.0, 0.0, Double.MinPositiveValue, Double.MaxValue, -1.0)
    // Few distinct values: one-byte codes, the specials included.
    assert(roundTrip(Array.fill(5000)(special(rnd.nextInt(special.length)))) == 1)
    assert(roundTrip(Array.tabulate(3000)(i => if (i % 300 == 0) special(i / 300 % 9) else (i % 240 - 20).toDouble))
      == 1)
    // Many distinct values, still few per vertex: two-byte codes.
    assert(roundTrip(Array.tabulate(20000)(i => if (i % 997 == 0) -0.0 else (i % 4000) * 0.1)) == 2)
    // Mostly distinct values: the Doubles themselves.
    assert(roundTrip(Array.fill(20000)(rnd.nextDouble()) ++ special) == 8)
    assert(roundTrip(Array.tabulate(70000)(i => (i % 65537).toDouble)) == 8)
    // Tiny arrays, where no code pays for its table.
    assert(roundTrip(Array.empty[Double]) == 8 && roundTrip(Array(Double.NaN)) == 8)
    assert(roundTrip(Array(-0.0, -0.0, 1.0, 1.0)) == 1)
  }
}
