package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.{BruteForce, DualTrans, InvIdx}
import repro.io.IOModel
import scala.util.Random

class SearchSpec extends AnyFunSuite {

  private def randomDb(n: Int, nTokens: Int, maxSize: Int, seed: Long): Array[Array[Int]] = {
    val rnd = new Random(seed)
    Array.fill(n)(SetOps.canon(Seq.fill(rnd.nextInt(maxSize) + 1)(rnd.nextInt(nTokens))))
  }

  test("range returns exactly the brute-force result, many random instances") {
    val rnd = new Random(41)
    for (trial <- 1 to 15) {
      val db = randomDb(120, 50, 8, rnd.nextLong())
      val index = new Les3Index(db, Grouping.random(db.length, 10, rnd.nextLong()))
      val brute = new BruteForce(db)
      for (delta <- Seq(0.3, 0.5, 0.8, 1.0)) {
        val q = db(rnd.nextInt(db.length))
        val got = index.range(q, delta).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
        val exp = brute.range(q, delta).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
        assert(got == exp, s"trial $trial delta $delta")
      }
    }
  }

  test("knn similarity profile matches brute force, many random instances") {
    val rnd = new Random(42)
    for (trial <- 1 to 15) {
      val db = randomDb(150, 60, 10, rnd.nextLong())
      val index = new Les3Index(db, Grouping.random(db.length, 12, rnd.nextLong()))
      val brute = new BruteForce(db)
      for (k <- Seq(1, 5, 20)) {
        val q = db(rnd.nextInt(db.length))
        val got = index.knn(q, k).hits.map(_.sim).sorted
        val exp = brute.knn(q, k).hits.map(_.sim).sorted
        assert(got == exp, s"trial $trial k $k")
      }
    }
  }

  test("knn returns at most k hits and in descending order") {
    val db = randomDb(50, 30, 6, 5)
    val index = new Les3Index(db, Grouping.random(db.length, 5, 1))
    val r = index.knn(db(0), 7)
    assert(r.hits.length == 7)
    assert(r.hits.map(_.sim).toSeq == r.hits.map(_.sim).sortBy(-_).toSeq)
  }

  test("TopK keeps the k best in descending order; a tie with the kth-best does not displace it") {
    val top = new TopK(3)
    for ((sim, sid) <- Seq(0.2, 0.9, 0.5, 0.7).zipWithIndex) top.offer(sid, sim)
    assert(top.full && top.min == 0.5)
    top.offer(9, 0.5)
    assert(top.hits.toSeq == Seq(Hit(1, 0.9), Hit(3, 0.7), Hit(2, 0.5)))
    assert(top.hits.toSeq == Seq(Hit(1, 0.9), Hit(3, 0.7), Hit(2, 0.5)), "hits does not drain")
    val few = new TopK(5)
    few.offer(4, 0.1); few.offer(2, 0.3)
    assert(!few.full && few.hits.toSeq == Seq(Hit(2, 0.3), Hit(4, 0.1)))
  }

  test("TopK's bar is -inf until it holds k hits, then the least value above the kth-best") {
    val top = new TopK(2)
    assert(top.bar == Double.NegativeInfinity)
    top.offer(0, 0.4)
    assert(top.bar == Double.NegativeInfinity)
    top.offer(1, 0.7)
    assert(top.bar == Math.nextUp(0.4))
    top.offer(2, 0.4)
    assert(top.bar == Math.nextUp(0.4), "a tie with the kth-best leaves the bar")
    top.offer(3, 0.9)
    assert(top.bar == Math.nextUp(0.7))
  }

  test("Within's bar is delta, and it keeps exactly the offers that reach delta") {
    val within = new Within(0.5)
    for ((sim, sid) <- Seq(0.2, 0.5, Math.nextDown(0.5), 1.0, 0.7).zipWithIndex) within.offer(sid, sim)
    assert(within.bar == 0.5)
    assert(within.hits.toSeq == Seq(Hit(1, 0.5), Hit(3, 1.0), Hit(4, 0.7)))
  }

  test("knn with k larger than |D| returns everything") {
    val db = randomDb(10, 20, 5, 6)
    val index = new Les3Index(db, Grouping.random(db.length, 3, 2))
    assert(index.knn(db(0), 50).hits.length == 10)
  }

  test("range at the ends of the delta domain equals brute force") {
    val db = randomDb(30, 20, 5, 7)
    val index = new Les3Index(db, Grouping.random(db.length, 4, 3))
    val brute = new BruteForce(db)
    for (d <- Seq(Double.MinPositiveValue, 1.0)) {
      assert(index.range(db(0), d).hits.map(h => (h.sid, h.sim)).sortBy(_._1) ==
        brute.range(db(0), d).hits.map(h => (h.sid, h.sim)).sortBy(_._1), s"delta $d")
    }
  }

  test("query for an indexed set always finds it with similarity 1") {
    val db = randomDb(80, 40, 6, 8)
    val index = new Les3Index(db, Grouping.random(db.length, 8, 4))
    for (sid <- Seq(0, 17, 79)) {
      val r = index.range(db(sid), 1.0)
      assert(r.hits.exists(h => h.sim == 1.0))
      assert(index.knn(db(sid), 1).hits.head.sim == 1.0)
    }
  }

  test("candidates never exceed |D| and PE is in [0, 1] for kNN") {
    val db = randomDb(100, 50, 8, 9)
    val index = new Les3Index(db, Grouping.random(db.length, 10, 5))
    for (k <- Seq(1, 10)) {
      val s = index.knn(db(3), k).stats
      assert(s.candidates <= db.length)
      val pe = s.peKnn(db.length, k)
      assert(pe >= 0.0 && pe <= 1.0)
    }
  }

  test("good partitioning yields higher PE than one-group partitioning") {
    // One group = zero pruning (everything is a candidate).
    val db = randomDb(100, 200, 5, 10)
    val oneGroup = new Les3Index(db, new Grouping(Array.fill(100)(0), 1))
    val s = oneGroup.knn(db(0), 5).stats
    assert(s.candidates == 100)
    assert(math.abs(s.peKnn(100, 5) - 0.05) < 1e-9)
  }

  test("in-memory IO model reports zero storage time") {
    val db = randomDb(40, 30, 5, 11)
    val index = new Les3Index(db, Grouping.random(db.length, 4, 6))
    assert(index.range(db(0), 0.5).stats.ioMs == 0.0)
    assert(index.knn(db(0), 3).stats.ioMs == 0.0)
  }

  test("HDD IO model accumulates per-group random access time") {
    val db = randomDb(40, 30, 5, 12)
    val index = new Les3Index(db, Grouping.random(db.length, 4, 6), io = IOModel.Hdd())
    val s = index.range(db(0), 0.2).stats
    assert(s.groupsRead > 0)
    assert(s.ioMs >= s.groupsRead * 11.0) // ≥ seek+rotational per group
  }

  test("HDD IO model charges a group read as its members' scaled payloads") {
    val db = randomDb(300, 40, 12, 13)
    val hdd = IOModel.Hdd(dataByteScale = 1000)
    val index = new Les3Index(db, Grouping.random(db.length, 7, 14), io = hdd)
    for (q <- Seq(db(0), db(1), Array(3, 9, 27)); delta <- Seq(0.05, 0.3, 0.8)) {
      val ubs = index.tgm.ubs(q)
      var expected = 0.0
      for (g <- 0 until index.tgm.nGroups if ubs(g) >= delta && index.members(g).nonEmpty)
        expected += hdd.randomAccess(index.members(g).map(sid => hdd.dataBytes(db(sid).length, 1)).sum)
      assert(index.range(q, delta).stats.ioMs == expected, s"q = ${q.mkString(",")}, δ = $delta")
    }
  }

  test("insert: joins the group with the highest UB (Sec 6)") {
    // G0 holds token 1..2 sets, G1 holds token 10..11 sets.
    val db: Array[Array[Int]] = Array(Array(1, 2), Array(1), Array(10, 11), Array(10))
    val index = new Les3Index(db, new Grouping(Array(0, 0, 1, 1), 2))
    val (sid, gid) = index.insert(Array(1, 2))
    assert(sid == 4)
    assert(gid == 0)
    val (_, gid2) = index.insert(Array(10, 11))
    assert(gid2 == 1)
  }

  test("insert: UB ties go to the smallest group") {
    val db: Array[Array[Int]] = Array(Array(1), Array(1), Array(1), Array(1), Array(1))
    // G0 has 4 sets, G1 has 1; both contain token 1 → tie on UB.
    val index = new Les3Index(db, new Grouping(Array(0, 0, 0, 0, 1), 2))
    val (_, gid) = index.insert(Array(1))
    assert(gid == 1)
  }

  test("insert: set with only unseen tokens goes to the smallest group") {
    val db: Array[Array[Int]] = Array(Array(1), Array(1), Array(2))
    val index = new Les3Index(db, new Grouping(Array(0, 0, 1), 2))
    val (_, gid) = index.insert(Array(500, 600))
    assert(gid == 1)
    assert(index.tgm.nTokens == 601)
  }

  test("insert: a rejected set leaves the index and every answer unchanged") {
    val db: Array[Array[Int]] = Array(Array(1, 2), Array(1), Array(10, 11), Array(10))
    val index = new Les3Index(db, new Grouping(Array(0, 0, 1, 1), 2))
    val queries = Seq(Array(1, 2), Array(10), Array(20, 21))
    def answers = queries.map(q => (index.range(q, 0.5).hits.toSet, index.knn(q, 3).hits.map(_.sim)))
    val before = answers
    for (bad <- Seq(Array(-1, 20, 21), Array(21, 20), Array(20, 20)))
      intercept[IllegalArgumentException](index.insert(bad))
    assert(index.nSets == 4 && index.tgm.nTokens == 12 && answers == before)
    assert(index.insert(Array(20, 21)) == ((4, 0)))
    val brute = new BruteForce(index.db)
    for (q <- queries)
      assert(index.range(q, 0.5).hits.toSet == brute.range(q, 0.5).hits.toSet)
  }

  test("insert: a token past the TGM column-view limit is rejected, answers unchanged") {
    val db = randomDb(130, 60, 8, 17)
    val index = new Les3Index(db, Grouping.random(db.length, 65, 3))
    val brute = new BruteForce(db)
    intercept[IllegalArgumentException](index.insert(Array(1 << 30)))
    intercept[IllegalArgumentException](index.insert(Array(5, 1 << 30)))
    assert(index.nSets == db.length && index.tgm.nTokens <= 60)
    val rnd = new Random(18)
    for (q <- Seq.fill(20)(db(rnd.nextInt(db.length))) ++ Seq(Array(5, 1 << 30), Array.empty[Int])) {
      assert(index.range(q, 0.5).hits.toSet == brute.range(q, 0.5).hits.toSet)
      assert(index.knn(q, 5).hits.map(_.sim).sorted == brute.knn(q, 5).hits.map(_.sim).sorted)
    }
  }

  test("every engine rejects a reversed, duplicated or negative query token") {
    val db: Array[Array[Int]] = Array(Array(1, 2, 3), Array(4, 5), Array(2, 3))
    val grouping = new Grouping(Array(0, 1, 1), 2)
    val engines = Seq[(String, SimilarityIndex)](
      "LES3" -> new Les3Index(db, grouping), "HTGM" -> HTGM.build(db, Seq(grouping)),
      "BruteForce" -> new BruteForce(db), "InvIdx" -> new InvIdx(db), "DualTrans" -> new DualTrans(db))
    for ((name, e) <- engines) {
      assert(e.range(Array(1, 2, 3), 1.0).hits.toSeq == Seq(Hit(0, 1.0)), name)
      for (bad <- Seq(Array(3, 2, 1), Array(1, 2, 2, 3), Array(-1, 2))) {
        intercept[IllegalArgumentException](e.range(bad, 1.0))
        intercept[IllegalArgumentException](e.knn(bad, 1))
      }
    }
  }

  test("every engine answers an empty database with no hits; LES³ built empty finds its first insert") {
    val empty = Array.empty[Array[Int]]
    val grouping = new Grouping(Array.empty[Int], 2)
    val dual = new DualTrans(empty)
    val engines = Seq[(String, SimilarityIndex)](
      "LES3" -> new Les3Index(empty, grouping),
      "HTGM" -> HTGM.build(empty, Seq(new Grouping(Array.empty[Int], 1), grouping)),
      "BruteForce" -> new BruteForce(empty), "InvIdx" -> new InvIdx(empty), "DualTrans" -> dual)
    for ((name, e) <- engines; q <- Seq(Array(1, 2, 3), Array.empty[Int])) {
      for (d <- Seq(0.5, 1.0)) assert(e.range(q, d).hits.isEmpty, s"$name range δ = $d")
      for (k <- Seq(1, 5)) assert(e.knn(q, k).hits.isEmpty, s"$name knn k = $k")
    }
    assert(dual.sizeBytes == 0L)
    val index = new Les3Index(empty, grouping)
    assert(index.insert(Array(4, 7))._1 == 0)
    assert(index.range(Array(4, 7), 1.0).hits.toSeq == Seq(Hit(0, 1.0)))
    assert(index.knn(Array(4, 7), 1).hits.toSeq == Seq(Hit(0, 1.0)))
  }

  test("every engine but BruteForce rejects a range delta outside (0, 1]") {
    val db: Array[Array[Int]] = Array(Array(1, 2, 3), Array(4, 5), Array(2, 3))
    val grouping = new Grouping(Array(0, 1, 1), 2)
    val engines = Seq[(String, SimilarityIndex)](
      "LES3" -> new Les3Index(db, grouping), "HTGM" -> HTGM.build(db, Seq(grouping)),
      "InvIdx" -> new InvIdx(db), "DualTrans" -> new DualTrans(db))
    for ((name, e) <- engines) {
      assert(e.range(Array(1, 2, 3), 1.0).hits.toSeq == Seq(Hit(0, 1.0)), name)
      for (bad <- Seq(0.0, -0.1, 1.0 + 1e-9, Double.NaN))
        intercept[IllegalArgumentException](e.range(Array(1, 2, 3), bad))
    }
    // The benchmark oracle's scan: BruteForce at δ = 0 returns every set.
    assert(new BruteForce(db).range(Array(1, 2, 3), 0.0).hits.length == db.length)
  }

  test("size filter: a candidate whose size cannot reach δ is not verified") {
    val db: Array[Array[Int]] = Array(Array(1), Array.range(1, 21), Array(1, 2))
    val index = new Les3Index(db, new Grouping(Array(0, 0, 0), 1))
    val r = index.range(Array(1), 0.9)
    assert(r.hits.toSeq == Seq(Hit(0, 1.0)))
    assert(r.stats.candidates == 3 && r.stats.verified == 1)
    val k = index.knn(Array(1), 1).stats
    assert(k.candidates == 3 && k.verified == 1)
  }

  test("search stays exact after open-universe insertions (Sec 6)") {
    val rnd = new Random(43)
    val db = randomDb(60, 30, 6, 13)
    val index = new Les3Index(db, Grouping.random(db.length, 6, 7))
    for (i <- 1 to 30) {
      val s = SetOps.canon(Seq.fill(rnd.nextInt(6) + 1)(rnd.nextInt(60))) // half new tokens
      index.insert(s)
    }
    val allDb = index.db.toArray
    val brute = new BruteForce(allDb)
    for (_ <- 1 to 10) {
      val q = allDb(rnd.nextInt(allDb.length))
      val got = index.range(q, 0.5).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
      val exp = brute.range(q, 0.5).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
      assert(got == exp)
      assert(index.knn(q, 5).hits.map(_.sim).sorted == brute.knn(q, 5).hits.map(_.sim).sorted)
    }
  }

  test("range PE accounts for result size (Definition 2.3)") {
    val db: Array[Array[Int]] = Array(Array(1), Array(1), Array(2), Array(3))
    val index = new Les3Index(db, new Grouping(Array(0, 0, 1, 2), 3))
    val r = index.range(Array(1), 1.0)
    // only group 0 verified: candidates=2, results=2 → PE = (4-(2-2))/4 = 1
    assert(r.stats.candidates == 2)
    assert(r.hits.length == 2)
  }
}
