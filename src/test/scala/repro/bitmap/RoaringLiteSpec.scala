package repro.bitmap

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RoaringLiteSpec extends AnyFunSuite {

  test("empty bitmap contains nothing") {
    val bm = RoaringLite.empty()
    assert(!bm.contains(0))
    assert(!bm.contains(123456))
    assert(bm.cardinality == 0)
    assert(bm.toArray.isEmpty)
  }

  test("single add") {
    val bm = RoaringLite.empty()
    bm.add(42)
    assert(bm.contains(42))
    assert(!bm.contains(41))
    assert(bm.cardinality == 1)
  }

  test("adds are idempotent") {
    val bm = RoaringLite.empty()
    bm.add(7); bm.add(7); bm.add(7)
    assert(bm.cardinality == 1)
  }

  test("negative values rejected by add, absent from contains") {
    val bm = RoaringLite.empty()
    intercept[IllegalArgumentException](bm.add(-1))
    assert(!bm.contains(-5))
  }

  test("values across multiple 2^16 chunks") {
    val values = Seq(0, 1, 65535, 65536, 65537, 1 << 20, (1 << 20) + 3)
    val bm = RoaringLite.of(values)
    values.foreach(v => assert(bm.contains(v), s"missing $v"))
    assert(bm.cardinality == values.size)
    assert(bm.toArray.toSeq == values.sorted)
  }

  test("container promotes from array to bitmap past 4096 entries") {
    val bm = RoaringLite.empty()
    // 5000 even values in one chunk forces promotion
    (0 until 5000).foreach(i => bm.add(i * 2))
    assert(bm.cardinality == 5000)
    (0 until 5000).foreach(i => assert(bm.contains(i * 2)))
    (0 until 5000).foreach(i => assert(!bm.contains(i * 2 + 1)))
    // bitmap container is fixed 8 KiB + key
    assert(bm.sizeBytes == 4 + 8 * 1024)
  }

  test("sparse chunk stays as array container (2 bytes per value)") {
    val bm = RoaringLite.of(Seq(1, 100, 5000))
    assert(bm.sizeBytes == 4 + 3 * 2)
  }

  test("toArray returns ascending order after unordered adds") {
    val rnd = new Random(11)
    val values = Seq.fill(2000)(rnd.nextInt(1 << 18)).distinct
    val bm = RoaringLite.of(rnd.shuffle(values))
    assert(bm.toArray.toSeq == values.sorted)
  }

  test("randomized equivalence with TreeSet") {
    val rnd = new Random(12)
    for (trial <- 1 to 10) {
      val bm = RoaringLite.empty()
      val ref = scala.collection.mutable.TreeSet.empty[Int]
      for (_ <- 1 to 3000) {
        val v = rnd.nextInt(200000)
        bm.add(v); ref += v
      }
      assert(bm.cardinality == ref.size, s"trial $trial")
      assert(bm.toArray.toSeq == ref.toSeq)
      for (_ <- 1 to 500) {
        val probe = rnd.nextInt(200000)
        assert(bm.contains(probe) == ref.contains(probe))
      }
    }
  }

  test("countContained matches per-element contains") {
    val rnd = new Random(13)
    val bm = RoaringLite.of(Seq.fill(1000)(rnd.nextInt(10000)))
    for (_ <- 1 to 50) {
      val q = Seq.fill(rnd.nextInt(30))(rnd.nextInt(12000)).distinct.sorted.toArray
      assert(bm.countContained(q) == q.count(bm.contains))
    }
  }

  test("countContained matches contains across chunks, bitmap containers and gaps") {
    val rnd = new Random(15)
    // chunk 0 a bitmap container, chunks 1 and 3 arrays, chunk 2 absent
    val bm = RoaringLite.of(Seq.fill(6000)(rnd.nextInt(65536)) ++
      Seq.fill(300)(65536 + rnd.nextInt(65536)) ++ Seq.fill(300)(3 * 65536 + rnd.nextInt(65536)))
    for (_ <- 1 to 100) {
      val q = (Seq(-5, -1) ++ Seq.fill(rnd.nextInt(200))(rnd.nextInt(5 * 65536))).distinct.sorted.toArray
      assert(bm.countContained(q) == q.count(bm.contains))
    }
    assert(RoaringLite.empty().countContained(Array(0, 1)) == 0)
  }

  test("promotion preserves previously-added values") {
    val bm = RoaringLite.empty()
    val rnd = new Random(14)
    val vals = (0 until 6000).map(_ => rnd.nextInt(65536)).distinct
    vals.foreach(bm.add)
    vals.foreach(v => assert(bm.contains(v)))
    assert(bm.cardinality == vals.size)
  }

  test("of() builder equals manual adds") {
    val vs = Seq(5, 3, 9, 100000)
    val a = RoaringLite.of(vs)
    val b = RoaringLite.empty()
    vs.foreach(b.add)
    assert(a.toArray.toSeq == b.toArray.toSeq)
  }
}
