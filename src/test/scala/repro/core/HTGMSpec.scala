package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.baselines.BruteForce
import scala.util.Random

class HTGMSpec extends AnyFunSuite {

  private def randomDb(n: Int, nTokens: Int, maxSize: Int, seed: Long): Array[Array[Int]] = {
    val rnd = new Random(seed)
    Array.fill(n)(SetOps.canon(Seq.fill(rnd.nextInt(maxSize) + 1)(rnd.nextInt(nTokens))))
  }

  /** Nested groupings: fine refines coarse by splitting each coarse group. */
  private def nested(n: Int, coarseGroups: Int, splitsPer: Int, seed: Long): (Grouping, Grouping) = {
    val rnd = new Random(seed)
    val coarse = Array.fill(n)(rnd.nextInt(coarseGroups))
    val fine = coarse.map(c => c * splitsPer + rnd.nextInt(splitsPer))
    (new Grouping(coarse, coarseGroups), new Grouping(fine, coarseGroups * splitsPer))
  }

  test("build rejects non-nested level pairs") {
    val db = randomDb(20, 20, 4, 1)
    val coarse = new Grouping(Array.fill(20)(0), 1)
    val rnd = new Random(2)
    val notNested = new Grouping(Array.fill(20)(rnd.nextInt(3)), 3)
    // fine group spanning two coarse groups must be rejected
    val badCoarse = new Grouping(Array.tabulate(20)(i => i % 2), 2)
    val badFine = new Grouping(Array.fill(20)(0), 1)
    intercept[IllegalArgumentException](HTGM.build(db, Seq(badCoarse, badFine)))
    // sanity: a valid nesting builds
    HTGM.build(db, Seq(coarse, notNested))
  }

  test("knn matches brute force on random nested groupings") {
    val rnd = new Random(3)
    for (trial <- 1 to 10) {
      val db = randomDb(150, 60, 8, rnd.nextLong())
      val (coarse, fine) = nested(150, 4, 3, rnd.nextLong())
      val htgm = HTGM.build(db, Seq(coarse, fine))
      val brute = new BruteForce(db)
      for (k <- Seq(1, 8)) {
        val q = db(rnd.nextInt(db.length))
        assert(htgm.knn(q, k).hits.map(_.sim).sorted ==
               brute.knn(q, k).hits.map(_.sim).sorted, s"trial $trial k $k")
      }
    }
  }

  test("range matches brute force on random nested groupings") {
    val rnd = new Random(4)
    for (trial <- 1 to 10) {
      val db = randomDb(120, 50, 8, rnd.nextLong())
      val (coarse, fine) = nested(120, 4, 3, rnd.nextLong())
      val htgm = HTGM.build(db, Seq(coarse, fine))
      val brute = new BruteForce(db)
      for (delta <- Seq(0.4, 0.7)) {
        val q = db(rnd.nextInt(db.length))
        val got = htgm.range(q, delta).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
        val exp = brute.range(q, delta).hits.map(h => (h.sid, h.sim)).sortBy(_._1)
        assert(got == exp, s"trial $trial delta $delta")
      }
    }
  }

  test("single-level HTGM equals the flat TGM engine") {
    val db = randomDb(80, 40, 6, 5)
    val g = Grouping.random(80, 8, 6)
    val htgm = HTGM.build(db, Seq(g))
    val flat = new Les3Index(db, g)
    val q = db(0)
    assert(htgm.knn(q, 5).hits.map(_.sim).sorted == flat.knn(q, 5).hits.map(_.sim).sorted)
    assert(htgm.range(q, 0.5).hits.map(_.sid).sorted == flat.range(q, 0.5).hits.map(_.sid).sorted)
    val (hs, fs) = (htgm.range(q, 0.5).stats, flat.range(q, 0.5).stats)
    assert((hs.candidates, hs.groupsRead, hs.ubProbes) == (fs.candidates, fs.groupsRead, fs.ubProbes))
  }

  test("hierarchical pruning probes fewer cells when sets are dissimilar") {
    // Disjoint token blocks per coarse group: the coarse level prunes hard.
    val db: Array[Array[Int]] = Array.tabulate(64) { i =>
      val block = i / 16
      Array(block * 100 + i % 16, block * 100 + (i % 16) + 20)
    }
    val coarse = new Grouping(Array.tabulate(64)(_ / 16), 4)
    val fine = new Grouping(Array.tabulate(64)(_ / 4), 16)
    val htgm = HTGM.build(db, Seq(coarse, fine))
    val flat = new Les3Index(db, fine)
    val q = db(0)
    val hStats = htgm.range(q, 0.5).stats
    val fStats = flat.range(q, 0.5).stats
    assert(hStats.ubProbes < fStats.ubProbes)
    assert(hStats.candidates == fStats.candidates)
  }

  test("three-level hierarchy searches correctly") {
    val rnd = new Random(7)
    val db = randomDb(120, 40, 6, 8)
    val l0 = Array.fill(120)(rnd.nextInt(2))
    val l1 = l0.map(c => c * 3 + rnd.nextInt(3))
    val l2 = l1.map(c => c * 2 + rnd.nextInt(2))
    val htgm = HTGM.build(db,
      Seq(new Grouping(l0, 2), new Grouping(l1, 6), new Grouping(l2, 12)))
    val brute = new BruteForce(db)
    val q = db(10)
    assert(htgm.knn(q, 5).hits.map(_.sim).sorted == brute.knn(q, 5).hits.map(_.sim).sorted)
  }
}
