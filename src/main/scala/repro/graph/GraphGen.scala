package repro.graph

import org.apache.spark.sql.SparkSession
import org.apache.spark.unsafe.hash.Murmur3_x86_32

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on seven real-world power-law graphs (SNAP/KONECT)
  * plus an RMAT graph. Offline, we substitute deterministic RMAT stand-ins
  * whose (|V|, |E|) are the paper's scaled down (divisors documented in
  * `datasets` and DESIGN.md). RMAT with the classic (a,b,c,d) =
  * (0.57, 0.19, 0.19, 0.05) reproduces the heavy-tailed degree skew that
  * drives the redundancy behaviour the paper measures.
  */
object GraphGen {

  /** SplitMix64 — cheap, high-quality 64-bit mixer for per-edge determinism. */
  private[graph] def mix64(x0: Long): Long = {
    var x = x0 + 0x9E3779B97F4A7C15L
    x = (x ^ (x >>> 30)) * 0xBF58476D1CE4E5B9L
    x = (x ^ (x >>> 27)) * 0x94D049BB133111EBL
    x ^ (x >>> 31)
  }

  /** Uniform double in [0,1) from a 64-bit state. */
  private def unit(x: Long): Double = (x >>> 11).toDouble * TwoToMinus53

  /** 2^-53: scaling by a power of two is exact, so multiplying by it equals
    * dividing by 2^53, only faster.
    */
  private val TwoToMinus53 = 1.0 / (1L << 53).toDouble

  /** One RMAT edge for (seed, index) over 2^scale vertex ids, packed as
    * `src << 32 | dst`.
    */
  private[graph] def rmatEdge(scale: Int, seed: Long, index: Long, a: Double, b: Double, c: Double): Long = {
    var src = 0L; var dst = 0L
    var state = mix64(seed ^ mix64(index))
    var lvl = 0
    while (lvl < scale) {
      state = mix64(state)
      val r = unit(state)
      // Quadrants a, b, c, d: (0, 0), (0, 1), (1, 0), (1, 1).
      src = (src << 1) | (if (r < a + b) 0L else 1L)
      dst = (dst << 1) | (if (r < a || (r >= a + b && r < a + b + c)) 0L else 1L)
      lvl += 1
    }
    src << 32 | dst
  }

  /** Deterministic integral edge weight in [1, maxW]. */
  private[graph] def edgeWeight(src: Long, dst: Long, maxW: Int): Double =
    1.0 + java.lang.Math.floorMod(mix64(src * 0x9E3779B97F4A7C15L ^ dst), maxW).toDouble

  /** RMAT edge list over 2^scale vertex ids.
    *
    * Oversamples, drops self-loops and duplicates, then takes a
    * deterministic (hash-ordered) prefix of `nEdges` — so small-scale RMAT
    * (whose hubs generate many duplicate edges) still lands near the target
    * edge count. Fully deterministic in (scale, nEdges, seed), and computed
    * in driver memory without a Spark job.
    */
  def rmatEdges(scale: Int, nEdges: Long, seed: Long, a: Double = 0.57, b: Double = 0.19,
                c: Double = 0.19, maxWeight: Int = 10): EdgeList = {
    require(scale >= 0 && scale <= 31, s"RMAT scale $scale outside [0, 31]")
    sample(math.max(nEdges * 2, 64L), nEdges, maxWeight)(rmatEdge(scale, seed, _, a, b, c))
  }

  /** Uniform random simple digraph — small test graphs with no skew. */
  def uniformEdges(nVertices: Long, nEdges: Long, seed: Long, maxWeight: Int = 10): EdgeList = {
    require(nVertices > 0 && nVertices <= Int.MaxValue, s"$nVertices vertices outside [1, 2^31)")
    sample(math.max(nEdges * 2, 16L), nEdges, maxWeight) { i =>
      val s = java.lang.Math.floorMod(mix64(seed ^ mix64(2 * i)), nVertices)
      val d = java.lang.Math.floorMod(mix64(seed ^ mix64(2 * i + 1)), nVertices)
      s << 32 | d
    }
  }

  /** The edges `pair(0 until draws)`, each a (src, dst) pair packed as
    * `src << 32 | dst` with both ids in [0, 2^31), without self-loops and
    * duplicates, ordered by (|hash(src, dst)|, src, dst), cut to the first
    * `nEdges` and weighted by [[edgeWeight]]; they come out in (src, dst)
    * order. `hash` is Spark SQL's Murmur3 hash of the two columns, so the
    * edge set is exactly that of the SQL query that drops self-loops and
    * duplicates, orders by abs(hash(src, dst)), src and dst, and keeps the
    * first `nEdges` rows (`GraphGenSpec` runs it as the oracle).
    *
    * The draws, hashes and sorts run on the JDK common pool; draw `i` lands
    * in slot `i`, so the result does not depend on the thread count.
    */
  private def sample(draws: Long, nEdges: Long, maxWeight: Int)(pair: Long => Long): EdgeList = {
    require(draws <= Int.MaxValue && nEdges >= 0, s"$draws edge draws for $nEdges edges")
    val pairs = new Array[Long](draws.toInt)
    java.util.Arrays.parallelSetAll(pairs, (i: Int) => {
      val p = pair(i.toLong)
      if ((p >>> 32) != (p & 0xFFFFFFFFL)) p else SelfLoop
    })
    // Distinct pairs, ascending: rank j is the j-th pair in (src, dst) order.
    // Self-loops all sort first, as one sentinel.
    val sorted = EdgeList.distinctSorted(pairs)
    val distinct =
      if (sorted.nonEmpty && sorted(0) == SelfLoop) java.util.Arrays.copyOfRange(sorted, 1, sorted.length) else sorted
    val keys = new Array[Long](distinct.length)
    java.util.Arrays.parallelSetAll(keys, (j: Int) => orderKey(sqlHash(distinct(j) >>> 32, distinct(j) & 0xFFFFFFFFL), j))
    java.util.Arrays.parallelSort(keys)
    // Mark the ranks of the first `kept` keys (SQL's `limit` takes an Int),
    // then read the marked pairs in rank order.
    val kept = math.min(keys.length.toLong, math.min(nEdges, Int.MaxValue.toLong)).toInt
    val marked = new Array[Boolean](distinct.length)
    var j = 0
    while (j < kept) { marked(keys(j).toInt) = true; j += 1 }
    val (src, dst, weight) = (new Array[Long](kept), new Array[Long](kept), new Array[Double](kept))
    var k = 0
    j = 0
    while (k < kept) {
      if (marked(j)) {
        val p = distinct(j)
        src(k) = p >>> 32
        dst(k) = p & 0xFFFFFFFFL
        weight(k) = edgeWeight(src(k), dst(k), maxWeight)
        k += 1
      }
      j += 1
    }
    new EdgeList(src, dst, weight)
  }

  /** A drawn self-loop: below every packed pair, whose ids are both < 2^31. */
  private val SelfLoop = -1L

  /** Spark SQL's `hash(src, dst)` of two `bigint` columns: Murmur3, seed 42,
    * folded over the columns in order.
    */
  private[graph] def sqlHash(src: Long, dst: Long): Int =
    Murmur3_x86_32.hashLong(dst, Murmur3_x86_32.hashLong(src, 42))

  /** Sort key of the pair of rank `rank` (its place in (src, dst) order):
    * `abs(hash)` in the high 32 bits, so keys order as
    * (abs(hash), src, dst). A hash equal to `Int.MinValue` has no positive
    * absolute value; `math.abs` leaves it negative, so the pair sorts first,
    * as under Spark's non-ANSI `abs`. (Under ANSI mode, Spark 4's default,
    * the SQL definition fails the query instead.) No catalog graph has such
    * a pair.
    */
  private[graph] def orderKey(hash: Int, rank: Int): Long = math.abs(hash).toLong << 32 | rank

  /** One evaluation dataset: a scaled stand-in for a paper graph (Table 4). */
  final case class GraphSpec(name: String, scale: Int, targetEdges: Long, seed: Long,
                             paperV: Double, paperE: Double, divisor: Int, kind: String) {
    /** Paper |V| and |E| in raw counts (paper table lists M/B units). */
    def paperVertices: Long = (paperV * 1e6).toLong
    def paperEdges: Long = (paperE * 1e6).toLong
  }

  /** The seven real-graph stand-ins (paper Table 4). Edge counts are the
    * paper's scaled down (PK/OK/LJ/ST by 1/1000, WK/DI by 1/4000, FS by
    * 1/8000, so the biggest graph stays the biggest while the full
    * 5-app x 7-graph sweep fits a laptop-scale Spark session). The vertex
    * id space (`scale`) is chosen for BFS depth rather than for the paper's
    * average degree: shrinking a graph at constant degree collapses its
    * diameter, and diameter is what drives the ramp-up redundancy the paper
    * measures — see DESIGN.md for this substitution.
    */
  val datasets: Seq[GraphSpec] = Seq(
    GraphSpec("PK", 13,  30600L, 101, 1.6,   30.6, 1000, "Social"),
    GraphSpec("OK", 14, 117200L, 102, 3.1,  117.2, 1000, "Social"),
    GraphSpec("LJ", 14,  69000L, 103, 4.8,   69.0, 1000, "Social"),
    GraphSpec("WK", 14,  94525L, 104, 12.1, 378.1, 4000, "Hyperlink"),
    GraphSpec("DI", 14,  75300L, 105, 33.8, 301.2, 4000, "Folksonomy"),
    GraphSpec("ST", 14,  85300L, 106, 11.3,  85.3, 1000, "Social"),
    GraphSpec("FS", 15, 225000L, 107, 65.6, 1800.0, 8000, "Social"),
  )

  /** One dataset as a graph laid out in `partitions` chunks. Its edges are
    * generated in driver memory, so no Spark job runs.
    */
  def build(spark: SparkSession, spec: GraphSpec, partitions: Int = 8): PropertyGraph =
    PropertyGraph(spark, spec.name, partitions)(rmatEdges(spec.scale, spec.targetEdges, spec.seed))
}
