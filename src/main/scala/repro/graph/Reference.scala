package repro.graph

import scala.collection.mutable

/** Pure-Scala reference implementations used as test oracles.
  *
  * These are sequential, work-optimal algorithms — the opposite end of the
  * parallelism/redundancy trade-off the paper discusses — so they make
  * trustworthy fixpoint oracles for the Spark engines.
  */
object Reference {

  val Inf: Double = 1e18

  private def adjacency(edges: Seq[(Long, Long, Double)]): Map[Long, Seq[(Long, Double)]] =
    edges.groupBy(_._1).map { case (s, es) => s -> es.map(e => (e._2, e._3)) }

  private def vertexSet(edges: Seq[(Long, Long, Double)]): Set[Long] =
    edges.iterator.flatMap(e => Iterator(e._1, e._2)).toSet

  /** Dijkstra single-source shortest paths; unreachable vertices map to Inf. */
  def sssp(edges: Seq[(Long, Long, Double)], root: Long): Map[Long, Double] = {
    val adj = adjacency(edges)
    val dist = mutable.Map.empty[Long, Double].withDefaultValue(Inf)
    val pq = mutable.PriorityQueue.empty[(Double, Long)](Ordering.by(-_._1))
    dist(root) = 0.0
    pq.enqueue((0.0, root))
    while (pq.nonEmpty) {
      val (d, v) = pq.dequeue()
      if (d <= dist(v)) {
        for ((u, w) <- adj.getOrElse(v, Nil); nd = d + w if nd < dist(u)) {
          dist(u) = nd
          pq.enqueue((nd, u))
        }
      }
    }
    (vertexSet(edges) + root).iterator.map(v => v -> dist(v)).toMap
  }

  /** Widest (maximum-bottleneck) path from root; root itself has width Inf,
    * unreachable vertices 0.
    */
  def widestPath(edges: Seq[(Long, Long, Double)], root: Long): Map[Long, Double] = {
    val adj = adjacency(edges)
    val width = mutable.Map.empty[Long, Double].withDefaultValue(0.0)
    val pq = mutable.PriorityQueue.empty[(Double, Long)](Ordering.by(_._1))
    width(root) = Inf
    pq.enqueue((Inf, root))
    while (pq.nonEmpty) {
      val (wd, v) = pq.dequeue()
      if (wd >= width(v)) {
        for ((u, w) <- adj.getOrElse(v, Nil); nw = math.min(wd, w) if nw > width(u)) {
          width(u) = nw
          pq.enqueue((nw, u))
        }
      }
    }
    (vertexSet(edges) + root).iterator.map(v => v -> width(v)).toMap
  }

  /** Connected components over the *undirected* closure of the edge list:
    * every vertex maps to the minimum vertex id in its component.
    */
  def components(edges: Seq[(Long, Long, Double)]): Map[Long, Long] = {
    val parent = mutable.Map.empty[Long, Long]
    def find(x: Long): Long = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      var c = x
      while (parent.getOrElse(c, c) != c) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    def union(a: Long, b: Long): Unit = {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    val vs = vertexSet(edges)
    vs.foreach(v => parent.getOrElseUpdate(v, v))
    edges.foreach { case (s, d, _) => union(s, d) }
    vs.iterator.map(v => v -> find(v)).toMap
  }

  /** PageRank by synchronous power iteration, exactly the engine's formula:
    * r'(v) = 0.15 + 0.85 * sum over in-edges u->v of r(u)/outDeg(u).
    * (Per the paper's Alg. 5; dangling mass is dropped, as in Gemini.)
    */
  def pagerank(edges: Seq[(Long, Long, Double)], iters: Int): Map[Long, Double] = {
    val vs = vertexSet(edges).toSeq.sorted
    val out = edges.groupBy(_._1).view.mapValues(_.size.toLong).toMap
    val inAdj = edges.groupBy(_._2).view.mapValues(_.map(_._1)).toMap
    var r = vs.iterator.map(v => v -> 1.0).toMap
    for (_ <- 1 to iters) {
      r = vs.iterator.map { v =>
        val s = inAdj.getOrElse(v, Nil).iterator.map(u => r(u) / out(u)).sum
        v -> (0.15 + 0.85 * s)
      }.toMap
    }
    r
  }

  /** TunkRank-style influence: t'(v) = sum over followers u->v of
    * (1 + p*t(u)) / outDeg(u), with p = 0.5, iterated synchronously from 0.
    */
  def tunkrank(edges: Seq[(Long, Long, Double)], iters: Int): Map[Long, Double] = {
    val vs = vertexSet(edges).toSeq.sorted
    val out = edges.groupBy(_._1).view.mapValues(_.size.toLong).toMap
    val inAdj = edges.groupBy(_._2).view.mapValues(_.map(_._1)).toMap
    var t = vs.iterator.map(v => v -> 0.0).toMap
    for (_ <- 1 to iters) {
      t = vs.iterator.map { v =>
        v -> inAdj.getOrElse(v, Nil).iterator.map(u => (1.0 + 0.5 * t(u)) / out(u)).sum
      }.toMap
    }
    t
  }

  /** Reference for the RRG preprocessing (paper Alg. 1): BFS levels from the
    * root set and lastIter(v) = 1 + max level(u) over reachable in-neighbors.
    * Returns (level, lastIter) maps over *reached* vertices only.
    */
  def bfsGuidance(edges: Seq[(Long, Long, Double)], roots: Set[Long]): (Map[Long, Int], Map[Long, Int]) = {
    val adj = adjacency(edges)
    val level = mutable.Map.empty[Long, Int]
    roots.foreach(r => level(r) = 0)
    var frontier = roots
    var iter = 1
    val lastIter = mutable.Map.empty[Long, Int]
    while (frontier.nonEmpty) {
      val touched = frontier.iterator.flatMap(v => adj.getOrElse(v, Nil).iterator.map(_._1)).toSet
      touched.foreach(d => lastIter(d) = iter)
      val newly = touched.filterNot(level.contains)
      newly.foreach(d => level(d) = iter)
      frontier = newly
      iter += 1
    }
    (level.toMap, lastIter.toMap)
  }
}
