package repro.graph

import scala.collection.immutable.AbstractMap

/** Read-only `Map` view of a dense per-vertex array: index `i` stands for
  * vertex `ids(i)` (`ids` ascending), and only indices where `present(i)`
  * holds are keys. Lookups binary-search `ids`; nothing is copied, so a view
  * costs no more than the arrays it reads.
  */
final class VertexMap[V](ids: Array[Long], value: Int => V, present: Int => Boolean)
    extends AbstractMap[Long, V] {

  private def indexOf(key: Long): Int = java.util.Arrays.binarySearch(ids, key)

  def get(key: Long): Option[V] = {
    val i = indexOf(key)
    if (i >= 0 && present(i)) Some(value(i)) else None
  }

  override def contains(key: Long): Boolean = {
    val i = indexOf(key)
    i >= 0 && present(i)
  }

  def iterator: Iterator[(Long, V)] = ids.indices.iterator.filter(present).map(i => ids(i) -> value(i))

  override lazy val size: Int = ids.indices.count(present)

  override def knownSize: Int = size

  def removed(key: Long): Map[Long, V] = Map.from(this) - key

  def updated[V1 >: V](key: Long, v: V1): Map[Long, V1] = Map.from[Long, V1](this).updated(key, v)
}

object VertexMap {

  /** Every vertex is a key. */
  def apply[V](ids: Array[Long], value: Int => V): VertexMap[V] = new VertexMap(ids, value, _ => true)

  /** Final vertex values of a run: one `Double` per vertex, in `ids` order.
    * The view keeps them losslessly but compactly ([[pack]]), since a
    * benchmark may hold many runs' results at once.
    */
  def dense(ids: Array[Long], values: Array[Double]): VertexMap[Double] = {
    require(ids.length == values.length, s"${values.length} values for ${ids.length} vertices")
    apply(ids, pack(values).read)
  }

  /** A reader of packed values, and the bytes it spends per value. */
  private[graph] final case class Packed(read: Int => Double, bytesPerValue: Int)

  /** `values` as `Byte` (up to 256 distinct values) or `Short` (up to
    * 65,536) codes into a table of the distinct bit patterns, whichever is
    * smaller than the `Double`s themselves, else the array itself. The table
    * holds the original `Double`s, so every value, NaN payloads and -0.0
    * included, reads back bit for bit. Min/max fixpoints hold few distinct
    * values (hop levels, component labels, widths), so they shrink up to 8x.
    */
  private[graph] def pack(values: Array[Double]): Packed = {
    val n = values.length
    val raw = Packed(values(_), 8)
    // Codes of w bytes beat the Doubles while n * w + 8 * distinct < 8 * n.
    val limit = math.min(1 << 16, (7L * n - 1) / 8).toInt
    if (limit <= 0) return raw
    // Open addressing over the bit patterns, at most half full; `slot` holds
    // code + 1, 0 when empty.
    val cap = Integer.highestOneBit(2 * limit - 1) * 2
    val shift = 64 - Integer.numberOfTrailingZeros(cap)
    val keys = new Array[Long](cap)
    val slot = new Array[Int](cap)
    val table = new Array[Double](limit)
    val codes = new Array[Short](n)
    var d = 0
    var i = 0
    while (i < n) {
      val key = java.lang.Double.doubleToRawLongBits(values(i))
      var h = ((key * 0x9E3779B97F4A7C15L) >>> shift).toInt
      while (slot(h) != 0 && keys(h) != key) h = (h + 1) & (cap - 1)
      if (slot(h) == 0) {
        if (d == limit) return raw
        keys(h) = key; table(d) = values(i); d += 1; slot(h) = d
      }
      codes(i) = (slot(h) - 1).toShort
      i += 1
    }
    val t = java.util.Arrays.copyOf(table, d)
    if (d <= 256) {
      val b = codes.map(_.toByte)
      Packed(i => t(b(i) & 0xff), 1)
    } else if (2L * n + 8L * d < 8L * n) Packed(i => t(codes(i) & 0xffff), 2)
    else raw
  }
}
