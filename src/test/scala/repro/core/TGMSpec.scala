package repro.core

import org.scalatest.funsuite.AnyFunSuite

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable
import scala.util.Random

class TGMSpec extends AnyFunSuite {

  // The paper's Figure 1 example: T = {A,B,C,D} → {0,1,2,3}, six sets in
  // two groups.
  private val figure1Db: Array[Array[Int]] = Array(
    Array(0),       // {A}   -> G0
    Array(0, 1),    // {A,B} -> G0
    Array(1),       // {B}   -> G0
    Array(2),       // {C}   -> G1
    Array(2, 3),    // {C,D} -> G1
    Array(3),       // {D}   -> G1
  )
  private val figure1Grouping = new Grouping(Array(0, 0, 0, 1, 1, 1), 2)

  test("Figure 1: matrix entries match Eq. 1") {
    val tgm = TGM.build(figure1Db, figure1Grouping)
    // G0 contains tokens A,B only; G1 contains C,D only
    assert(tgm.matched(Array(0), 0) == 1)
    assert(tgm.matched(Array(1), 0) == 1)
    assert(tgm.matched(Array(2), 0) == 0)
    assert(tgm.matched(Array(3), 0) == 0)
    assert(tgm.matched(Array(2), 1) == 1)
    assert(tgm.matched(Array(0), 1) == 0)
  }

  test("Figure 1: UB({A}, G0) = 1 and UB({A}, G1) = 0 (paper Sec 3.1)") {
    val tgm = TGM.build(figure1Db, figure1Grouping)
    assert(tgm.ub(Array(0), 0) == 1.0)
    assert(tgm.ub(Array(0), 1) == 0.0)
  }

  test("out-of-universe query tokens contribute 0 (Sec 3.1)") {
    val tgm = TGM.build(figure1Db, figure1Grouping)
    assert(tgm.matched(Array(0, 99), 0) == 1)
    assert(tgm.ub(Array(99), 0) == 0.0)
  }

  test("UB upper-bounds the similarity of every member (Thm 3.1, Jaccard)") {
    val rnd = new Random(31)
    for (_ <- 1 to 20) {
      val db: Array[Array[Int]] =
        Array.fill(80)(SetOps.canon(Seq.fill(rnd.nextInt(10) + 1)(rnd.nextInt(60))))
      val g = Grouping.random(80, 8, rnd.nextLong())
      val tgm = TGM.build(db, g)
      val q = SetOps.canon(Seq.fill(rnd.nextInt(10) + 1)(rnd.nextInt(60)))
      for (grp <- 0 until 8; sid <- g.members(grp)) {
        assert(tgm.ub(q, grp) >= SetOps.jaccard(q, db(sid)),
          s"UB violated for group $grp set $sid")
      }
    }
  }

  test("UB upper-bounds member similarity for cosine and dice too") {
    val rnd = new Random(32)
    for (m <- Seq(SetOps.Cosine, SetOps.Dice)) {
      val db: Array[Array[Int]] =
        Array.fill(60)(SetOps.canon(Seq.fill(rnd.nextInt(8) + 1)(rnd.nextInt(40))))
      val g = Grouping.random(60, 6, 77)
      val tgm = TGM.build(db, g, m)
      for (_ <- 1 to 10) {
        val q = SetOps.canon(Seq.fill(rnd.nextInt(8) + 1)(rnd.nextInt(40)))
        for (grp <- 0 until 6; sid <- g.members(grp)) {
          assert(tgm.ub(q, grp) >= m.sim(q, db(sid)))
        }
      }
    }
  }

  test("UB is tight when a member equals the matched token set") {
    // G0 = {{1,2}}, query {1,2,3}: R = {1,2}, and the set IS R.
    val db: Array[Array[Int]] = Array(Array(1, 2))
    val tgm = TGM.build(db, new Grouping(Array(0), 1))
    val q = Array(1, 2, 3)
    assert(tgm.ub(q, 0) == SetOps.jaccard(q, db(0)))
  }

  test("addSet extends the token universe") {
    val tgm = new TGM(1)
    tgm.addSet(0, Array(5))
    assert(tgm.nTokens == 6)
    tgm.addSet(0, Array(100))
    assert(tgm.nTokens == 101)
    assert(tgm.matched(Array(5, 100), 0) == 2)
  }

  test("a TGM needs at least one group") {
    for (g <- Seq(0, -1)) intercept[IllegalArgumentException](new TGM(g))
  }

  test("sizeBytes positive and grows with content") {
    val tgm = TGM.build(figure1Db, figure1Grouping)
    val before = tgm.sizeBytes
    assert(before > 0)
    tgm.addSet(0, Array(500, 600, 700))
    assert(tgm.sizeBytes > before)
  }

  // --- sizeBytes: the Roaring serialized size of the rows, per (group, chunk)

  private def oneGroup(tokens: Seq[Int]): TGM = {
    val tgm = new TGM(1)
    tgm.addSet(0, tokens.toArray)
    tgm
  }

  test("sizeBytes is 4 + min(2c, 8192) bytes per (group, 2^16-token chunk) of c tokens") {
    assert(oneGroup(Seq(1, 100, 5000)).sizeBytes == 4 + 3 * 2)
    for (n <- Seq(4096, 4097, 5000)) assert(oneGroup(Seq.tabulate(n)(_ * 2)).sizeBytes == 4 + 8192)
    assert(oneGroup(Seq(0, 1, 65535, 65536, 65537)).sizeBytes == (4 + 3 * 2) + (4 + 2 * 2))
    assert(oneGroup(Seq(7, 1 << 20)).sizeBytes == 2 * (4 + 2))
  }

  test("sizeBytes: an empty group costs 0 and re-adding present tokens changes nothing") {
    val tgm = new TGM(3)
    assert(tgm.sizeBytes == 0)
    tgm.addSet(1, Array(3, 70000))
    assert(tgm.sizeBytes == 2 * (4 + 2))
    tgm.addSet(1, Array(3, 70000))
    tgm.addSet(1, Array(70000, 3, 3))
    assert(tgm.sizeBytes == 2 * (4 + 2))
  }

  test("bulk build equals incremental build") {
    val rnd = new Random(33)
    val db: Array[Array[Int]] =
      Array.fill(40)(SetOps.canon(Seq.fill(rnd.nextInt(6) + 1)(rnd.nextInt(30))))
    val g = Grouping.random(40, 4, 9)
    val bulk = built(db, g)
    val inc = new Reference(4)
    for (sid <- db.indices) inc.addSet(g.assignment(sid), db(sid))
    assertMatches(bulk.tgm, bulk.gs, queries(rnd, 30))
    assertMatches(inc.tgm, inc.gs, queries(rnd, 30))
  }

  // --- every reader against GS_g kept as plain sets by the test

  private def randomSet(rnd: Random, nTokens: Int, maxSize: Int): Array[Int] =
    SetOps.canon(Seq.fill(rnd.nextInt(maxSize + 1))(rnd.nextInt(nTokens)))

  /** Sorted-distinct queries over and past the universe: empty, negative
    * tokens, tokens ≥ nTokens, and random ones.
    */
  private def queries(rnd: Random, nTokens: Int): Seq[Array[Int]] =
    Seq(Array.empty[Int], Array(-5, -1), Array(-3, 0, 1, nTokens - 1, nTokens, nTokens + 70),
        Array(nTokens, 1 << 20), Array.range(0, nTokens)) ++
      Seq.fill(20)(SetOps.canon(Seq.fill(rnd.nextInt(30))(rnd.nextInt(nTokens + 20) - 10)))

  /** A TGM written through its writer, with GS_g beside it. */
  private final class Reference(val tgm: TGM, val gs: IndexedSeq[mutable.Set[Int]]) {
    def this(nGroups: Int) = this(new TGM(nGroups), IndexedSeq.fill(nGroups)(mutable.Set.empty[Int]))
    def addSet(g: Int, tokens: Array[Int]): Unit = { tgm.addSet(g, tokens); gs(g) ++= tokens }
  }

  /** [[TGM.build]] over `db`, with GS_g beside it. */
  private def built(db: Array[Array[Int]], grouping: Grouping,
                    measure: SetOps.Measure = SetOps.Jaccard): Reference =
    new Reference(TGM.build(db, grouping, measure),
      grouping.members.toIndexedSeq.map(m => mutable.Set.from(m.iterator.flatMap(db(_)))))

  /** Roaring size of rows holding `gs`, chunk by chunk. */
  private def roaringBytes(gs: collection.IndexedSeq[collection.Set[Int]]): Long =
    gs.iterator.flatMap(_.groupBy(_ >>> 16).valuesIterator.map(c => 4L + math.min(2 * c.size, 8192))).sum

  /** `matched`, `matchedAll`, `ub`, `ubs`, `nTokens` and `sizeBytes` of
    * `tgm` all follow from `gs`.
    */
  private def assertMatches(tgm: TGM, gs: collection.IndexedSeq[collection.Set[Int]], qs: Seq[Array[Int]]): Unit = {
    assert(tgm.nGroups == gs.length)
    assert(tgm.nTokens == gs.iterator.flatten.foldLeft(-1)(math.max) + 1)
    assert(tgm.sizeBytes == roaringBytes(gs))
    for (q <- qs) {
      val all = tgm.matchedAll(q)
      val ubs = tgm.ubs(q)
      assert(all.length == gs.length && ubs.length == gs.length)
      for (g <- gs.indices) {
        val expected = q.count(gs(g).contains)
        assert(tgm.matched(q, g) == expected, s"group $g, query ${q.mkString(",")}")
        assert(all(g) == expected, s"group $g, query ${q.mkString(",")}")
        val ub = tgm.measure.ubFromOverlap(expected, q.length)
        assert(tgm.ub(q, g) == ub && ubs(g) == ub)
      }
    }
  }

  private def roundTrip(tgm: TGM): TGM = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(tgm)
    oos.close()
    new ObjectInputStream(new ByteArrayInputStream(bos.toByteArray)).readObject().asInstanceOf[TGM]
  }

  test("matched, matchedAll and ubs equal |GS_g ∩ Q| for G in {1, 63, 64, 65, 130}") {
    val rnd = new Random(41)
    for (nGroups <- Seq(1, 63, 64, 65, 130)) {
      val db = Array.fill(400)(randomSet(rnd, 200, 12))
      val ref = built(db, Grouping.random(db.length, nGroups, rnd.nextLong()))
      assertMatches(ref.tgm, ref.gs, queries(rnd, ref.tgm.nTokens))
      assert(ref.tgm.columnBytes == ref.tgm.nTokens * ((nGroups + 63) / 64) * 8L)
    }
  }

  test("a token past the column-view limit is rejected before the matrix changes") {
    val rnd = new Random(46)
    val db = Array.fill(200)(randomSet(rnd, 100, 10))
    val ref = built(db, Grouping.random(db.length, 65, 5))
    val tgm = ref.tgm
    val (tokens, bytes, size) = (tgm.nTokens, tgm.columnBytes, tgm.sizeBytes)
    // 2 words a token: (2^30 + 1) · 2 longs would wrap an Int product
    for (bad <- Seq(Array(3, 1 << 30), Array(7, Int.MaxValue), Array(-1, 4)))
      intercept[IllegalArgumentException](tgm.addSet(0, bad))
    intercept[IllegalArgumentException](tgm.addSet(64, Array(1 << 30)))
    assert(tgm.nTokens == tokens && tgm.columnBytes == bytes && tgm.sizeBytes == size)
    assertMatches(tgm, ref.gs, queries(rnd, tgm.nTokens) :+ Array(1 << 30))
    // the largest token the limit admits at 2 words a token is accepted
    val top = (TGM.MaxColumnLongs / 2 - 1).toInt
    intercept[IllegalArgumentException](tgm.requireTokens(Array(top + 1)))
    assert(tgm.requireTokens(Array(0, top)) == top)
    val g65 = new Grouping(Array.range(0, 65), 65)
    intercept[IllegalArgumentException](TGM.build(Array.fill(65)(Array(1 << 30)), g65))
    intercept[IllegalArgumentException](TGM.build(Array(Array(-1, 2)), new Grouping(Array(0), 1)))
    // a group that does not exist is rejected before any write
    for (bad <- Seq(65, -1)) intercept[IndexOutOfBoundsException](tgm.addSet(bad, Array(1)))
    intercept[IndexOutOfBoundsException](tgm.matched(Array(1), 65))
    assertMatches(tgm, ref.gs, Seq(Array(1, 2)))
  }

  test("column view from unsorted addSet rows (the collect_set order)") {
    val rnd = new Random(43)
    val ref = new Reference(70)
    // collect_set order: unsorted, large tokens first
    for (g <- 0 until 70) ref.addSet(g, rnd.shuffle(randomSet(rnd, 500, 40).toSeq).toArray)
    assertMatches(ref.tgm, ref.gs, queries(rnd, ref.tgm.nTokens))
  }

  test("column view grows with open-universe addSet") {
    val rnd = new Random(44)
    val db = Array.fill(100)(randomSet(rnd, 50, 8))
    val ref = built(db, Grouping.random(db.length, 66, 3))
    for (i <- 1 to 40) {
      ref.addSet(rnd.nextInt(66), SetOps.canon(Seq(rnd.nextInt(50), 50 + i * 37, 10000 + i)))
      assertMatches(ref.tgm, ref.gs, queries(rnd, ref.tgm.nTokens))
    }
    assert(ref.tgm.matchedAll(Array(10040)).sum == 1)
  }

  test("column view survives Java serialization") {
    val rnd = new Random(45)
    val db = Array.fill(300)(randomSet(rnd, 120, 10))
    val ref = built(db, Grouping.random(db.length, 65, 8), SetOps.Dice)
    val copy = new Reference(roundTrip(ref.tgm), ref.gs.map(_.clone()))
    assert(copy.tgm.columnBytes == ref.tgm.columnBytes && copy.tgm.measure == SetOps.Dice)
    assertMatches(copy.tgm, copy.gs, queries(rnd, ref.tgm.nTokens))
    // a deserialized matrix is still writable
    copy.addSet(64, Array(3, 999))
    assertMatches(copy.tgm, copy.gs, queries(rnd, copy.tgm.nTokens))
  }
}
