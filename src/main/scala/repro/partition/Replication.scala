package repro.partition

import java.util.BitSet
import org.apache.spark.unsafe.hash.Murmur3_x86_32.{hashInt, hashLong}
import repro.graph.{EdgeLayout, PropertyGraph}

/** Vertex replication factors of the comparison systems' ingress schemes.
  *
  * PowerGraph places edges by random vertex-cut; PowerLyra's hybrid-cut
  * keeps a low-in-degree vertex's in-edges on one machine and only splits
  * high-degree vertices. The replication factor (average number of machines
  * holding a copy of a vertex) drives their synchronization traffic — the
  * systems-level reason the paper's absolute gaps exceed pure
  * computation-count gaps (see DESIGN.md). Computed over the graph's layout;
  * each edge's machine is `pmod` of Spark SQL's `hash` of the placement
  * columns, so the factors equal those of the SQL placement
  * (`ReplicationSpec` runs it as the oracle).
  */
object Replication {

  /** Replication factor of the placement `machine(src, dst)` (dense
    * indices) over `k` machines: distinct (vertex, machine) pairs per
    * vertex, where a vertex occupies every machine holding an incident edge.
    */
  private def replicationFactor(l: EdgeLayout, k: Int)(machine: (Int, Int) => Int): Double = {
    val n = l.numVertices
    require(n.toLong * k <= Int.MaxValue, s"$n vertices on $k machines")
    val placed = new BitSet(n * k)
    for (s <- 0 until n; e <- l.adjOff(s) until l.adjOff(s + 1)) {
      val d = l.adjDst(e)
      val m = machine(s, d)
      placed.set(s * k + m)
      placed.set(d * k + m)
    }
    placed.cardinality.toDouble / n
  }

  /** SQL's `pmod(hash(cols..., 7), k)`: Murmur3 from 42 over the `bigint`
    * columns, then over the `int` literal 7.
    */
  private def machine(k: Int, cols: Long*): Int =
    java.lang.Math.floorMod(hashInt(7, cols.foldLeft(42)((h, c) => hashLong(c, h))), k)

  /** PowerGraph-style random vertex-cut over `k` machines. */
  def randomVertexCut(g: PropertyGraph, k: Int): Double = {
    val l = g.layout
    replicationFactor(l, k)((s, d) => machine(k, l.ids(s), l.ids(d)))
  }

  /** PowerLyra-style hybrid-cut: in-edges of a destination with in-degree
    * below `threshold` hash by destination (one machine); high-in-degree
    * destinations hash by source (split like a vertex-cut).
    */
  def hybridCut(g: PropertyGraph, k: Int, threshold: Long): Double = {
    val l = g.layout
    replicationFactor(l, k) { (s, d) =>
      machine(k, l.ids(if (l.inDeg(d) < threshold) d else s))
    }
  }
}
