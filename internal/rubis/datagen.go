package rubis

import (
	"fmt"
	"math/rand"

	"nose/internal/backend"
	"nose/internal/executor"
)

// dayZero is an arbitrary epoch for generated dates (seconds).
const dayZero = 1_400_000_000

// Generate builds a deterministic RUBiS dataset matching the model's
// entity counts and relationship fan-outs.
func Generate(cfg Config) (*backend.Dataset, error) {
	g := Graph(cfg)
	s := SizesFor(cfg)
	ds := backend.NewDataset(g)
	rng := rand.New(rand.NewSource(cfg.Seed))

	category := g.MustEntity("Category")
	region := g.MustEntity("Region")
	user := g.MustEntity("User")
	item := g.MustEntity("Item")
	bid := g.MustEntity("Bid")
	comment := g.MustEntity("Comment")
	buynow := g.MustEntity("BuyNow")
	old := g.MustEntity("OldItem")

	date := func() int64 { return dayZero + int64(rng.Intn(3650))*86_400 }

	for i := 0; i < s.Categories; i++ {
		if err := ds.AddEntity(category, map[string]backend.Value{
			"CategoryID": i, "CategoryName": fmt.Sprintf("category%d", i), "Dummy": 1,
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Regions; i++ {
		if err := ds.AddEntity(region, map[string]backend.Value{
			"RegionID": i, "RegionName": fmt.Sprintf("region%d", i),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Users; i++ {
		if err := ds.AddEntity(user, map[string]backend.Value{
			"UserID":       i,
			"UserNickname": fmt.Sprintf("user%d", i),
			"UserEmail":    fmt.Sprintf("user%d@rubis.example", i),
			"UserRating":   rng.Intn(40) - 10,
			"UserBalance":  float64(rng.Intn(100_000)) / 100,
			"UserCreated":  date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(region.Edge("Users"), int64(rng.Intn(s.Regions)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Items; i++ {
		price := float64(1+rng.Intn(5000)) / 1
		if err := ds.AddEntity(item, map[string]backend.Value{
			"ItemID":           i,
			"ItemName":         fmt.Sprintf("item%d", i),
			"ItemDescription":  fmt.Sprintf("description of item %d", i),
			"ItemInitialPrice": price,
			"ItemQuantity":     1 + rng.Intn(10),
			"ItemReservePrice": price * 1.1,
			"ItemBuyNowPrice":  price * 1.5,
			"ItemNbOfBids":     rng.Intn(100),
			"ItemMaxBid":       price * (1 + rng.Float64()),
			"ItemStartDate":    date(),
			"ItemEndDate":      date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(category.Edge("Items"), int64(rng.Intn(s.Categories)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("ItemsSold"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Bids; i++ {
		if err := ds.AddEntity(bid, map[string]backend.Value{
			"BidID": i, "BidQty": 1 + rng.Intn(5),
			"BidAmount": float64(1 + rng.Intn(5000)), "BidDate": date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("Bids"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(item.Edge("Bids"), int64(rng.Intn(s.Items)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.Comments; i++ {
		if err := ds.AddEntity(comment, map[string]backend.Value{
			"CommentID": i, "CommentRating": rng.Intn(11) - 5,
			"CommentDate": date(), "CommentText": fmt.Sprintf("comment %d", i),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("CommentsReceived"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("CommentsSent"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(item.Edge("Comments"), int64(rng.Intn(s.Items)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.BuyNows; i++ {
		if err := ds.AddEntity(buynow, map[string]backend.Value{
			"BuyNowID": i, "BuyNowQty": 1 + rng.Intn(5), "BuyNowDate": date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("BuyNows"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
		if err := ds.Connect(item.Edge("BuyNows"), int64(rng.Intn(s.Items)), int64(i)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.OldItems; i++ {
		if err := ds.AddEntity(old, map[string]backend.Value{
			"OldItemID": i, "OldItemName": fmt.Sprintf("old item %d", i), "OldItemEndDate": date(),
		}); err != nil {
			return nil, err
		}
		if err := ds.Connect(user.Edge("OldItemsBought"), int64(rng.Intn(s.Users)), int64(i)); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// ParamSource generates parameter bindings for transaction executions:
// existing ids for reads, fresh ids for inserts, deterministically from
// a seed.
//
// Params runs on one goroutine at a time, as its *rand.Rand requires;
// each caller owns its source. A binding Params returned may be read
// from any goroutine once it has been handed over: the intern tables
// never grow, and a slot is written once, before any binding that
// refers to it is returned. Stored records share the interned boxes,
// which are never written again.
type ParamSource struct {
	sizes Sizes
	rng   *rand.Rand
	// fresh id counters start above the generated ranges.
	nextBid, nextBuyNow, nextComment, nextItem, nextUser int64
	// The intern tables hold one boxed value per value a draw can
	// produce, filled the first time it is drawn: ids by id, dates by
	// day, prices by price and ratings by rating+ratingBase.
	ids, dates, prices, ratings []backend.Value
}

// The ranges Params draws from, which size the intern tables.
const (
	// days is the number of days a date is drawn from; a binding's end
	// date is endDays after its date.
	days, endDays = 3650, 30
	// maxPrice is the highest drawn price or amount.
	maxPrice = 5000
	// A new user rating is drawn from [-ratingBase, ratingSpan-ratingBase),
	// which holds every other drawn rating too.
	ratingBase, ratingSpan = 10, 40
)

// NewParamSource returns a parameter source for a configuration.
func NewParamSource(cfg Config, seed int64) *ParamSource {
	s := SizesFor(cfg)
	return &ParamSource{
		sizes: s, rng: rand.New(rand.NewSource(seed)),
		nextBid: int64(s.Bids), nextBuyNow: int64(s.BuyNows), nextComment: int64(s.Comments),
		nextItem: int64(s.Items), nextUser: int64(s.Users),
		ids:     make([]backend.Value, max(s.Users, s.Items, s.Categories, s.Regions)),
		dates:   make([]backend.Value, days+endDays),
		prices:  make([]backend.Value, maxPrice+1),
		ratings: make([]backend.Value, ratingSpan),
	}
}

// Params draws bindings for one execution of the named transaction,
// covering every parameter its statements use. Each execution makes the
// same rng draws in the same order whatever the transaction, then takes
// a fresh id for an insert's key. The draws sit in one small struct as
// raw numbers, and each number's boxed value is interned in the source
// the first time it is drawn, so neither the draw nor a read boxes it
// again; only a fresh id, which is never drawn twice, is boxed here.
// The constants and the name to slot mapping are a switch, so no map is
// built or hashed.
func (ps *ParamSource) Params(txn string) executor.Params {
	r := ps.rng
	day := int16(r.Intn(days))
	// Go evaluates the literal's elements left to right: the draws follow
	// its order, so reordering it changes every stream.
	d := &drawn{
		src:       ps,
		day:       day,
		item:      int32(r.Intn(ps.sizes.Items)),
		user:      int32(r.Intn(ps.sizes.Users)),
		touser:    int32(r.Intn(ps.sizes.Users)),
		category:  int16(r.Intn(ps.sizes.Categories)),
		region:    int16(r.Intn(ps.sizes.Regions)),
		qty:       int8(1 + r.Intn(5)),
		newqty:    int8(r.Intn(10)),
		amount:    int16(1 + r.Intn(maxPrice)),
		rating:    int8(r.Intn(11) - 5),
		newrating: int8(r.Intn(ratingSpan) - ratingBase),
		nb:        int8(r.Intn(100)),
		price:     int16(1 + r.Intn(maxPrice)),
		rprice:    int16(1 + r.Intn(maxPrice)),
		bnprice:   int16(1 + r.Intn(maxPrice)),
	}
	for _, id := range [...]int{int(d.item), int(d.user), int(d.touser), int(d.category), int(d.region)} {
		intern(ps.ids, id, int64(id))
	}
	for _, i := range [...]int{int(day), int(day) + endDays} {
		intern(ps.dates, i, int64(dayZero+int64(i)*86_400))
	}
	for _, p := range [...]int16{d.amount, d.price, d.rprice, d.bnprice} {
		intern(ps.prices, int(p), float64(p))
	}
	for _, rating := range [...]int8{d.rating, d.newrating} {
		intern(ps.ratings, int(rating)+ratingBase, int64(rating))
	}
	switch txn {
	case "StoreBid":
		ps.nextBid++
		d.freshName, d.fresh = freshBid, ps.nextBid
	case "StoreBuyNow":
		ps.nextBuyNow++
		d.freshName, d.fresh = freshBuyNow, ps.nextBuyNow
	case "StoreComment":
		ps.nextComment++
		d.freshName, d.fresh = freshComment, ps.nextComment
	case "RegisterItem":
		ps.nextItem++
		d.freshName, d.fresh = freshItem, ps.nextItem
	case "RegisterUser":
		ps.nextUser++
		d.freshName, d.fresh = freshUser, ps.nextUser
	}
	return d
}

// intern boxes v into tab[i] unless that slot already holds it.
func intern[T int64 | float64](tab []backend.Value, i int, v T) {
	if tab[i] == nil {
		tab[i] = v
	}
}

// The parameter a drawn binding's fresh id is bound to.
const (
	freshNone int8 = iota
	freshBid
	freshBuyNow
	freshComment
	freshItem
	freshUser
)

// drawn is one execution's bindings: the raw draws, read through their
// source's intern tables, and the fresh id of an insert, boxed when
// drawn and bound to the parameter freshName names. now and end are
// the dates of day and of endDays later. qty, newqty and nb stay below
// 256, which the runtime boxes without allocating.
type drawn struct {
	src                                *ParamSource
	item, user, touser                 int32
	day, category, region              int16
	amount, price, rprice, bnprice     int16
	qty, newqty, rating, newrating, nb int8
	freshName                          int8
	fresh                              backend.Value
}

// Param implements executor.Params.
func (d *drawn) Param(name string) (backend.Value, bool) {
	ps := d.src
	switch name {
	case "item":
		if d.freshName == freshItem {
			return d.fresh, true
		}
		return ps.ids[d.item], true
	case "user":
		if d.freshName == freshUser {
			return d.fresh, true
		}
		return ps.ids[d.user], true
	case "touser":
		return ps.ids[d.touser], true
	case "category":
		return ps.ids[d.category], true
	case "region":
		return ps.ids[d.region], true
	case "now":
		return ps.dates[d.day], true
	case "end":
		return ps.dates[d.day+endDays], true
	case "qty":
		return int64(d.qty), true
	case "newqty":
		return int64(d.newqty), true
	case "amount":
		return ps.prices[d.amount], true
	case "rating":
		return ps.ratings[d.rating+ratingBase], true
	case "newrating":
		return ps.ratings[d.newrating+ratingBase], true
	case "nb":
		return int64(d.nb), true
	case "price":
		return ps.prices[d.price], true
	case "rprice":
		return ps.prices[d.rprice], true
	case "bnprice":
		return ps.prices[d.bnprice], true
	case "bid":
		if d.freshName == freshBid {
			return d.fresh, true
		}
	case "bnid":
		if d.freshName == freshBuyNow {
			return d.fresh, true
		}
	case "cid":
		if d.freshName == freshComment {
			return d.fresh, true
		}
	case "dummy":
		return int64(1), true
	case "text":
		return "generated comment", true
	case "maxbid", "balance":
		return float64(0), true
	case "name":
		return "new item", true
	case "desc":
		return "new item description", true
	case "nick":
		return "new user", true
	case "email":
		return "new@rubis.example", true
	}
	return nil, false
}
