package repro.core

import scala.jdk.CollectionConverters._
import repro.{SparkSpec, TestUtil}
import repro.apps.Apps

/** The edge-pass primitive every engine is built on. */
class EdgeOpsSpec extends SparkSpec {
  import TestUtil._

  private def g = figure1()

  private def srcsAll(values: Map[Long, Double]) =
    g.vertexIds.toSeq.map(v => (v, values.getOrElse(v, 0.0), g.outDeg(v)))

  test("min aggregation over all destinations") {
    // dist values: everyone 0 except V2=2, V3=2 -> V4 gets min(2+1, 2+2)=3.
    val values = Map(2L -> 2.0, 3L -> 2.0)
    val agg = EdgeOps.aggregate(g, Apps.sssp(0L), srcsAll(values), None)
    assert(agg(4L)._1 == 3.0 && agg(4L)._2 == 2) // two in-edges processed
    assert(agg(5L)._1 == 1.0) // V4 value 0 + weight 1
  }

  test("destination filter restricts computed vertices") {
    val agg = EdgeOps.aggregate(g, Apps.sssp(0L), srcsAll(Map.empty), Some(Seq(4L)))
    assert(agg.keySet == Set(4L))
  }

  test("empty source set yields no messages") {
    assert(EdgeOps.aggregate(g, Apps.sssp(0L), Nil, None).isEmpty)
  }

  test("empty destination set yields no messages") {
    assert(EdgeOps.aggregate(g, Apps.sssp(0L), srcsAll(Map.empty), Some(Nil)).isEmpty)
  }

  test("sum aggregation divides by source out-degree (PR message)") {
    // V0 has outDeg 2 -> contribution 0.5 to each of V1 and V3 when rank 1.
    val srcs = Seq((0L, 1.0, g.outDeg(0L)))
    val agg = EdgeOps.aggregate(g, Apps.pagerank(), srcs, None)
    assert(agg(1L)._1 == 0.5 && agg(3L)._1 == 0.5)
  }

  test("max aggregation with min(srcVal, weight) (WP message)") {
    // V4 hears from V3 (width 5 capped by weight 2) and V2 (width 0.5 capped by 1).
    val srcs = Seq((3L, 5.0, g.outDeg(3L)), (2L, 0.5, g.outDeg(2L)))
    val agg = EdgeOps.aggregate(g, Apps.wp(0L), srcs, None)
    assert(agg(4L)._1 == 2.0)
  }

  test("edge counts sum to edges out of the source set") {
    val srcs = Seq((0L, 0.0, 2L), (4L, 0.0, 1L)) // outDeg 2 + 1
    val agg = EdgeOps.aggregate(g, Apps.sssp(0L), srcs, None)
    assert(agg.valuesIterator.map(_._2).sum == 3)
  }

  test("initState attaches RRG lastIter and out-degrees") {
    val rrg = RRGuidance.generate(g, Set(0L))
    val st = EdgeOps.initState(g, Apps.sssp(0L), Some(rrg))
    val byId = st.map(v => v.id -> v).toMap
    assert(byId(0L).value == 0.0 && byId(0L).active)
    assert(byId(5L).value == Apps.Inf && !byId(5L).active)
    assert(byId(4L).lastIter == 3 && byId(0L).outDeg == 2)
  }

  test("initState without RRG leaves lastIter at 0") {
    val st = EdgeOps.initState(g, Apps.cc, None)
    assert(st.forall(_.lastIter == 0) && st.forall(_.active))
  }
}

/** `EdgeOps.aggregate` over the edge blocks against a brute-force fold over
  * the edge list, on random graphs with random source and destination sets.
  */
class EdgeOpsKernelSpec extends SparkSpec {
  import TestUtil._
  import repro.graph.{GraphGen, PropertyGraph}

  private type Agg = Map[Long, (Double, Long)]

  private def bruteForce(edges: Seq[(Long, Long, Double)], prog: VertexProgram,
                         srcs: Seq[(Long, Double, Long)], dsts: Option[Seq[Long]]): Agg = {
    val src = srcs.map(s => s._1 -> s).toMap
    val dst = dsts.map(_.toSet)
    edges.filter { case (s, d, _) => src.contains(s) && dst.forall(_.contains(d)) }
      .groupBy(_._2).map { case (d, es) =>
        val ms = es.map { case (s, _, w) => prog.msg(src(s)._2, w, src(s)._3) }
        d -> (ms.foldLeft(prog.agg.zero)(prog.agg.combine), es.size.toLong)
      }
  }

  /** Same keys and counts; values equal, or within 1e-12 relative for sums. */
  private def assertSame(got: Agg, want: Agg, prog: VertexProgram, clue: String): Unit = {
    assert(got.keySet == want.keySet, clue)
    want.foreach { case (d, (m, c)) =>
      val (gm, gc) = got(d)
      assert(gc == c, s"$clue: count of $d")
      if (prog.agg == AggKind.Sum) assert(math.abs(gm - m) <= 1e-12 * math.abs(m), s"$clue: $gm vs $m at $d")
      else assert(gm == m, s"$clue: $gm vs $m at $d")
    }
  }

  test("aggregate matches a brute-force fold on random graphs; push and pull agree") {
    val rnd = new scala.util.Random(5)
    val gs = Seq(
      PropertyGraph("rmat", chunks = 1)(GraphGen.rmatEdges(7, 500, 41)),
      PropertyGraph("uniform", chunks = 1)(GraphGen.uniformEdges(80, 300, 42)))
    for (g <- gs) {
      val edges = collectEdges(g)
      val ids = g.vertexIds.toSeq
      val progs = Seq(Apps.sssp(ids.head), Apps.sssp(ids.head, unitWeight = true), Apps.cc,
        Apps.wp(ids.head), Apps.pagerank(), Apps.tunkrank())
      for (prog <- progs; trial <- 1 to 3) {
        val clue = s"${g.name} ${prog.name} trial $trial"
        val values = ids.map(v => v -> rnd.nextInt(20).toDouble * rnd.nextDouble()).toMap
        val some = ids.filter(_ => rnd.nextDouble() < 0.3)
        val all = ids.map(v => (v, values(v), g.outDeg(v)))
        val part = all.filter(s => some.contains(s._1) || rnd.nextDouble() < 0.2)
        val dsts = ids.filter(_ => rnd.nextDouble() < 0.5)
        for ((srcs, ds) <- Seq((all, None), (all, Some(dsts)), (part, None), (part, Some(dsts))))
          assertSame(EdgeOps.aggregate(g, prog, srcs, ds), bruteForce(edges, prog, srcs, ds), prog,
            s"$clue srcs=${srcs.size} dsts=${ds.map(_.size)}")
        // Every source, by push and by pull.
        val dense = ids.map(values).toArray
        val (push, pull) = (EdgeOps.push(g, prog, dense, ids.indices.toArray), EdgeOps.pull(g, prog, dense, None))
        def agg(m: Messages): Agg =
          ids.indices.filter(m.received).map(i => ids(i) -> (m.agg(i), m.count(i).toLong)).toMap
        assertSame(agg(push), agg(pull), prog, s"$clue push vs pull")
      }
    }
  }

  test("an aggregate call starts no Spark job") {
    val g = PropertyGraph(chunks = 1)(GraphGen.rmatEdges(7, 300, 43))
    val srcs = g.vertexIds.toSeq.map(v => (v, 1.0, g.outDeg(v)))
    for (dsts <- Seq(None, Some(g.vertexIds.toSeq.take(10))))
      assert(sparkJobs(spark)(EdgeOps.aggregate(g, Apps.pagerank(), srcs, dsts))._2 == 0, dsts.isDefined)
  }

  test("a failing message fails the call with its type") {
    val g = PropertyGraph(chunks = 4)(GraphGen.rmatEdges(7, 300, 44))
    val i = g.layout.outDeg.indexWhere(_ > 0)
    val v = g.vertexIds(i)
    val bad = Apps.cc.copy(msg = (srcVal, _, _) => {
      require(srcVal != v.toDouble, s"message from $v")
      srcVal
    })
    val values = g.vertexIds.map(_.toDouble)
    val e = intercept[IllegalArgumentException](EdgeOps.pull(g, bad, values, None))
    assert(e.getMessage.contains(s"message from $v"))
    intercept[IllegalArgumentException](EdgeOps.push(g, bad, values, Array(i)))
    // The pool survives a failed call.
    assert(EdgeOps.pull(g, Apps.cc, values, None).edges == g.numEdges)
  }

  test("concurrent engine runs match sequential runs") {
    val gs = Seq(PropertyGraph("rmat", chunks = 4)(GraphGen.rmatEdges(8, 1200, 45)),
      PropertyGraph("uniform", chunks = 3)(GraphGen.uniformEdges(150, 600, 46)))
    val runs: Seq[() => RunResult] = gs.flatMap { g =>
      val root = g.maxOutDegVertex
      val rrg = RRGuidance.generate(g, Set(root))
      Seq(() => Engine.run(g, Apps.sssp(root), Schedule.Slfe(rrg)),
        () => Engine.run(g, Apps.pagerank(), Schedule.Slfe(rrg), maxIters = 40))
    }
    val sequential = runs.map(_())
    val pool = java.util.concurrent.Executors.newFixedThreadPool(runs.size)
    try {
      val concurrent = runs.map(r => pool.submit(new java.util.concurrent.Callable[RunResult] { def call() = r() }))
        .map(_.get)
      sequential.zip(concurrent).foreach { case (a, b) =>
        assert(a.values == b.values, s"${a.app} on ${a.graph}")
        def counts(r: RunResult) = r.stats.map(_.copy(nanos = 0, edgeNanos = 0))
        assert(counts(a) == counts(b), s"${a.app} on ${a.graph}")
      }
    } finally pool.shutdown()
  }

  test("a buffer reused across pulls and pushes equals a fresh call; its receivers are the vertices with messages") {
    import java.util.BitSet
    val rnd = new scala.util.Random(9)
    val gs = Seq(PropertyGraph("rmat", chunks = 4)(GraphGen.rmatEdges(8, 1200, 47)),
      PropertyGraph("uniform", chunks = 3)(GraphGen.uniformEdges(150, 600, 48)))
    for (g <- gs) {
      val n = g.numVertices.toInt
      val buf = new Messages(n)
      def subset(): BitSet = {
        val p = if (rnd.nextInt(6) == 0) 0.0 else rnd.nextDouble() // empty to full frontiers
        val b = new BitSet(n)
        for (i <- 0 until n if rnd.nextDouble() < p) b.set(i)
        b
      }
      for (prog <- Seq(Apps.sssp(g.vertexIds(0)), Apps.wp(g.vertexIds(0)), Apps.pagerank()); step <- 1 to 20) {
        val clue = s"${g.name} ${prog.name} step $step"
        val values = Array.fill(n)(rnd.nextInt(20).toDouble * rnd.nextDouble())
        val (reused, fresh) =
          if (rnd.nextBoolean()) {
            val srcs = subset().stream.toArray
            (EdgeOps.push(g, prog, values, srcs, buf), EdgeOps.push(g, prog, values, srcs))
          } else {
            val dsts = Some(subset())
            (EdgeOps.pull(g, prog, values, dsts, into = buf), EdgeOps.pull(g, prog, values, dsts))
          }
        assert(reused eq buf, clue)
        assert(reused.count.sameElements(fresh.count), clue)
        for (i <- 0 until n if fresh.received(i)) assert(reused.agg(i) == fresh.agg(i), s"$clue at $i")
        assert(reused.edges == fresh.edges && reused.edges == fresh.count.map(_.toLong).sum, clue)
        for (m <- Seq(reused, fresh))
          assert((0 until m.receivers).map(m.receiver).sorted == (0 until n).filter(m.count(_) > 0), clue)
      }
    }
  }

  test("a message failing in one chunk or in every chunk fails the call with its own exception") {
    import java.util.BitSet
    val g = PropertyGraph(chunks = 4)(GraphGen.rmatEdges(7, 300, 49))
    val l = g.layout
    val n = l.numVertices
    assert(l.blocks.forall(_.numEdges > 0))
    val values = g.vertexIds.map(_.toDouble)
    val want = EdgeOps.pull(g, Apps.cc, values, None)
    val buf = new Messages(n)
    val oneChunk = new BitSet(n)
    oneChunk.set(l.chunkStarts(1), l.chunkStarts(2))
    for ((where, dsts) <- Seq("one chunk" -> Some(oneChunk), "every chunk" -> None)) {
      val bad = Apps.cc.copy(msg = (_, _, _) => throw new IllegalStateException(s"fails in $where"))
      val e = intercept[IllegalStateException](EdgeOps.pull(g, bad, values, dsts, into = buf))
      assert(e.getMessage == s"fails in $where")
      // The pool, and the buffer the failed call wrote into, serve the next call.
      val next = EdgeOps.pull(g, Apps.cc, values, None, into = buf)
      assert(next.count.sameElements(want.count) && next.edges == g.numEdges, where)
    }
  }

  test("a pull and a push run their chunk tasks on the caller and at most availableProcessors - 1 other threads") {
    val g = PropertyGraph(chunks = 16)(GraphGen.rmatEdges(9, 3000, 50))
    val l = g.layout
    assert(l.numChunks == 16 && l.blocks.forall(_.numEdges > 0))
    val values = g.vertexIds.map(_.toDouble)
    for (pass <- Seq("pull", "push")) {
      val threads = java.util.concurrent.ConcurrentHashMap.newKeySet[Thread]()
      // A thread's first message holds its chunk a while, so that every
      // thread the pass starts gets a chunk of its own.
      val recording = Apps.cc.copy(msg = (srcVal, _, _) => {
        if (threads.add(Thread.currentThread())) Thread.sleep(5)
        srcVal
      })
      val m =
        if (pass == "pull") EdgeOps.pull(g, recording, values, None)
        else EdgeOps.push(g, recording, values, g.vertexIds.indices.toArray)
      assert(m.edges == g.numEdges, pass)
      threads.remove(Thread.currentThread())
      assert(threads.size <= Runtime.getRuntime.availableProcessors - 1, s"$pass: $threads")
      assert(threads.asScala.forall(_.getName == "edgeops-worker"), s"$pass: $threads")
    }
  }

  test("a source out-degree that disagrees with the graph fails loudly") {
    val g = figure1()
    intercept[IllegalArgumentException](EdgeOps.aggregate(g, Apps.pagerank(), Seq((0L, 1.0, 5L)), None))
  }
}
