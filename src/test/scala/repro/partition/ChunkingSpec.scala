package repro.partition

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.checkProp

class ChunkingSpec extends AnyFunSuite {

  private def uniformDeg(d: Long): Long => Long = _ => d

  test("partition covers every vertex exactly once, in contiguous ranges") {
    val vs = (0L until 100L).toSeq
    val chunks = Chunking.partition(vs, uniformDeg(1), parts = 4)
    assert(chunks.flatMap(_.vertices) == vs)
    chunks.foreach { c =>
      if (c.vertices.nonEmpty)
        assert(c.vertices == (c.vertices.head to c.vertices.last).toVector)
    }
  }

  test("uniform degrees give near-equal chunks") {
    val chunks = Chunking.partition((0L until 64L).toSeq, uniformDeg(2), parts = 4)
    assert(chunks.map(_.vertices.size).forall(s => s == 16))
    assert(math.abs(Chunking.imbalance(chunks) - 1.0) < 1e-9)
  }

  test("a hub vertex fattens its chunk but edges stay balanced elsewhere") {
    val deg: Long => Long = v => if (v == 0L) 100L else 1L
    val chunks = Chunking.partition((0L until 40L).toSeq, deg, parts = 4)
    assert(chunks.head.vertices.contains(0L))
    // The hub chunk closes immediately after the hub (edge-balanced sweep).
    assert(chunks.head.vertices.size < 10)
  }

  test("last part absorbs the remainder") {
    val chunks = Chunking.partition((0L until 10L).toSeq, uniformDeg(1), parts = 3)
    assert(chunks.map(_.vertices.size).sum == 10)
  }

  test("parts can exceed vertices without error") {
    val chunks = Chunking.partition(Seq(1L, 2L), uniformDeg(1), parts = 5)
    assert(chunks.size == 5 && chunks.flatMap(_.vertices) == Seq(1L, 2L))
  }

  test("property: chunks always partition the vertex set") {
    checkProp(Prop.forAll(Gen.choose(1, 200), Gen.choose(1, 8)) { (n: Int, p: Int) =>
      val vs = (0L until n.toLong).toSeq
      val chunks = Chunking.partition(vs, v => 1 + (v % 3), p)
      chunks.flatMap(_.vertices) == vs
    }, minSuccessful = 50)
  }

  test("property: chunk edge counts sum to total degree") {
    checkProp(Prop.forAll(Gen.choose(1, 200), Gen.choose(1, 8)) { (n: Int, p: Int) =>
      val vs = (0L until n.toLong).toSeq
      val deg: Long => Long = v => v % 5
      val chunks = Chunking.partition(vs, deg, p)
      chunks.map(_.edges).sum == vs.map(deg).sum
    }, minSuccessful = 50)
  }

  test("property: cut over a degree array equals partition over the ids") {
    val degrees = Gen.listOf(Gen.frequency(8 -> Gen.choose(0L, 5L), 1 -> Gen.choose(20L, 400L)))
    checkProp(Prop.forAll(degrees, Gen.choose(1, 9)) { (degs: List[Long], p: Int) =>
      val d = degs.toArray
      // Ids in shuffled order, spaced out: partition sorts them.
      val ids = scala.util.Random.shuffle(d.indices.map(i => 3L * i - 5).toList)
      val chunks = Chunking.partition(ids, v => d(((v + 5) / 3).toInt), p)
      val starts = Chunking.cut(d.length, d(_), p)
      starts.toSeq == chunks.scanLeft(0)(_ + _.vertices.size) &&
        chunks.indices.forall(c => chunks(c).edges == d.slice(starts(c), starts(c + 1)).sum)
    }, minSuccessful = 100)
  }

  test("imbalance near 1 for edge-balanced partition of a skewed graph") {
    val deg: Long => Long = v => if (v % 17 == 0) 40L else 1L
    val chunks = Chunking.partition((0L until 500L).toSeq, deg, parts = 8)
    assert(Chunking.imbalance(chunks) < 1.5, s"imb=${Chunking.imbalance(chunks)}")
  }

  test("chunking emits exactly `parts` chunks") {
    checkProp(Prop.forAll(Gen.choose(1, 100), Gen.choose(1, 10)) { (n: Int, p: Int) =>
      Chunking.partition((0L until n.toLong).toSeq, _ => 1L, p).size == p
    }, minSuccessful = 40)
  }

  test("chunking vertices stay sorted within and across chunks") {
    val chunks = Chunking.partition(Seq(5L, 1L, 9L, 3L, 7L), _ => 2L, 2)
    val flat = chunks.flatMap(_.vertices)
    assert(flat == flat.sorted)
  }

  test("chunk edge field equals the sum of member degrees") {
    val deg: Long => Long = v => v + 1
    val chunks = Chunking.partition((0L until 20L).toSeq, deg, 3)
    chunks.foreach(c => assert(c.edges == c.vertices.map(deg).sum))
  }
}
