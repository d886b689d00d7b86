"""Domain vocabulary used by the synthetic database and workload generators.

A *domain* describes one kind of database (concerts, flights, universities,
hospitals, ...) in terms of entities, their attributes, and the relationships
between them.  The database generator instantiates domains into concrete
schemas with rows, and the workload generator phrases natural-language
questions over them.

The synonym lexicon captures the "semantic mismatch" axis of the paper (C3):
questions posed by non-experts paraphrase schema terminology.  The schema
questioner and the Spider-syn analogue both draw from this lexicon.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema.column import ColumnType


@dataclass(frozen=True)
class AttributeSpec:
    """One attribute of an entity."""

    name: str
    column_type: ColumnType = ColumnType.TEXT
    value_pool: str = "word"
    synonyms: tuple[str, ...] = ()


@dataclass(frozen=True)
class EntitySpec:
    """One entity that becomes a table."""

    name: str
    attributes: tuple[AttributeSpec, ...]
    synonyms: tuple[str, ...] = ()


@dataclass(frozen=True)
class RelationSpec:
    """A relationship between two entities of a domain.

    ``one_to_many``: the child table gets a foreign key to the parent.
    ``many_to_many``: a junction table referencing both entities is created.
    """

    parent: str
    child: str
    kind: str = "one_to_many"
    junction_name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("one_to_many", "many_to_many"):
            raise ValueError(f"unknown relation kind {self.kind!r}")


@dataclass(frozen=True)
class DomainSpec:
    """A complete domain description."""

    name: str
    entities: tuple[EntitySpec, ...]
    relations: tuple[RelationSpec, ...] = ()
    topic_words: tuple[str, ...] = ()

    def entity(self, name: str) -> EntitySpec:
        for entity in self.entities:
            if entity.name == name:
                return entity
        raise KeyError(f"domain {self.name!r} has no entity {name!r}")


def _attr(name: str, column_type: ColumnType = ColumnType.TEXT, pool: str = "word",
          synonyms: tuple[str, ...] = ()) -> AttributeSpec:
    return AttributeSpec(name=name, column_type=column_type, value_pool=pool, synonyms=synonyms)


_INT = ColumnType.INTEGER
_REAL = ColumnType.REAL
_TEXT = ColumnType.TEXT
_DATE = ColumnType.DATE
_BOOL = ColumnType.BOOLEAN


#: Global synonym lexicon: schema word -> natural-language paraphrases.
SYNONYM_LEXICON: dict[str, tuple[str, ...]] = {
    "name": ("title", "full name", "label"),
    "age": ("years old", "how old"),
    "year": ("calendar year", "when"),
    "country": ("nation", "state of origin"),
    "city": ("town", "municipality"),
    "population": ("number of residents", "inhabitants"),
    "salary": ("pay", "compensation", "wage"),
    "price": ("cost", "amount charged"),
    "budget": ("funding", "money allocated"),
    "revenue": ("income", "earnings", "turnover"),
    "capacity": ("maximum size", "number of seats"),
    "rating": ("score", "review score"),
    "singer": ("vocalist", "artist"),
    "concert": ("show", "performance", "gig"),
    "venue": ("location", "place", "stadium"),
    "student": ("pupil", "learner"),
    "teacher": ("instructor", "educator"),
    "course": ("class", "subject"),
    "department": ("division", "unit"),
    "employee": ("worker", "staff member"),
    "manager": ("supervisor", "boss"),
    "customer": ("client", "buyer", "shopper"),
    "order": ("purchase", "transaction"),
    "product": ("item", "good", "merchandise"),
    "flight": ("air trip", "plane journey"),
    "airport": ("airfield", "air terminal"),
    "airline": ("carrier", "air company"),
    "patient": ("person treated", "case"),
    "doctor": ("physician", "clinician"),
    "hospital": ("clinic", "medical center"),
    "treatment": ("therapy", "procedure"),
    "car": ("automobile", "vehicle"),
    "maker": ("manufacturer", "producer"),
    "model": ("version", "variant"),
    "horsepower": ("engine power", "power output"),
    "team": ("club", "squad"),
    "player": ("athlete", "sportsperson"),
    "match": ("game", "fixture"),
    "stadium": ("arena", "ground"),
    "movie": ("film", "picture"),
    "director": ("filmmaker",),
    "actor": ("performer", "cast member"),
    "book": ("publication", "volume"),
    "author": ("writer",),
    "publisher": ("publishing house",),
    "loan": ("credit", "borrowing"),
    "account": ("bank account", "ledger"),
    "balance": ("amount held", "funds"),
    "branch": ("office", "location"),
    "invoice": ("bill", "statement"),
    "shipment": ("delivery", "consignment"),
    "warehouse": ("depot", "storage facility"),
    "supplier": ("vendor", "provider"),
    "region": ("area", "territory"),
    "indicator": ("metric", "measure"),
    "value": ("figure", "amount"),
    "quarter": ("three month period",),
    "gdp": ("gross domestic product", "economic output"),
    "language": ("tongue", "spoken language"),
    "continent": ("landmass", "part of the world"),
    "river": ("waterway", "stream"),
    "mountain": ("peak", "summit"),
    "election": ("vote", "poll"),
    "party": ("political party", "faction"),
    "candidate": ("nominee", "contender"),
    "song": ("track", "tune"),
    "album": ("record", "release"),
    "genre": ("style", "category of music"),
    "grade": ("mark", "result"),
    "enrollment": ("number of students", "registered students"),
    "tuition": ("school fees", "cost of study"),
    "duration": ("length", "running time"),
    "distance": ("length of trip", "mileage"),
    "weight": ("mass", "heaviness"),
    "height": ("elevation", "tallness"),
    "status": ("state", "condition"),
    "type": ("kind", "category"),
    "date": ("day", "calendar date"),
    "quantity": ("amount", "number of units"),
    "stock": ("inventory", "units available"),
    "email": ("email address", "contact address"),
    "phone": ("phone number", "telephone"),
    "address": ("location", "street address"),
    "nationality": ("citizenship", "country of origin"),
    "position": ("role", "job title"),
    "wins": ("victories", "games won"),
    "losses": ("defeats", "games lost"),
    "points": ("score", "tally"),
    "seats": ("places", "chairs"),
    "rooms": ("chambers", "accommodations"),
    "guest": ("visitor", "patron"),
    "hotel": ("inn", "lodging"),
    "booking": ("reservation",),
    "premiere": ("first showing", "debut"),
    "episode": ("installment", "part"),
    "channel": ("network", "station"),
    "donation": ("contribution", "gift"),
    "donor": ("contributor", "benefactor"),
    "charity": ("nonprofit", "foundation"),
    "asset": ("holding", "property"),
    "bond": ("fixed income security", "debt instrument"),
    "fund": ("investment fund", "portfolio"),
    "trade": ("transaction", "deal"),
    "sector": ("industry", "segment"),
    "profit": ("net income", "gain"),
}


# --------------------------------------------------------------------------
# Domain catalogue
# --------------------------------------------------------------------------

DOMAINS: tuple[DomainSpec, ...] = (
    DomainSpec(
        name="concert_singer",
        topic_words=("music", "live"),
        entities=(
            EntitySpec("singer", (
                _attr("name", _TEXT, "person_name"),
                _attr("country", _TEXT, "country"),
                _attr("age", _INT, "age"),
                _attr("net_worth", _REAL, "money"),
            )),
            EntitySpec("concert", (
                _attr("concert_name", _TEXT, "event_name"),
                _attr("venue", _TEXT, "venue"),
                _attr("year", _INT, "year"),
                _attr("capacity", _INT, "capacity"),
            )),
            EntitySpec("stadium", (
                _attr("name", _TEXT, "venue"),
                _attr("city", _TEXT, "city"),
                _attr("capacity", _INT, "capacity"),
                _attr("average_attendance", _REAL, "capacity"),
            )),
        ),
        relations=(
            RelationSpec(parent="stadium", child="concert"),
            RelationSpec(parent="singer", child="concert", kind="many_to_many",
                         junction_name="singer_in_concert"),
        ),
    ),
    DomainSpec(
        name="world_geography",
        topic_words=("world", "geography"),
        entities=(
            EntitySpec("country", (
                _attr("name", _TEXT, "country"),
                _attr("continent", _TEXT, "continent"),
                _attr("population", _INT, "population"),
                _attr("surface_area", _REAL, "area"),
                _attr("gdp", _REAL, "money"),
            )),
            EntitySpec("city", (
                _attr("name", _TEXT, "city"),
                _attr("population", _INT, "population"),
                _attr("is_capital", _BOOL, "boolean"),
            )),
            EntitySpec("language", (
                _attr("name", _TEXT, "language"),
                _attr("speakers", _INT, "population"),
                _attr("is_official", _BOOL, "boolean"),
            )),
            EntitySpec("river", (
                _attr("name", _TEXT, "river"),
                _attr("length", _REAL, "distance"),
            )),
        ),
        relations=(
            RelationSpec(parent="country", child="city"),
            RelationSpec(parent="country", child="language"),
            RelationSpec(parent="country", child="river", kind="many_to_many",
                         junction_name="river_traversal"),
        ),
    ),
    DomainSpec(
        name="university",
        topic_words=("education", "campus"),
        entities=(
            EntitySpec("student", (
                _attr("name", _TEXT, "person_name"),
                _attr("age", _INT, "age"),
                _attr("major", _TEXT, "subject"),
                _attr("gpa", _REAL, "rating"),
            )),
            EntitySpec("course", (
                _attr("title", _TEXT, "subject"),
                _attr("credits", _INT, "small_count"),
                _attr("level", _TEXT, "level"),
            )),
            EntitySpec("department", (
                _attr("name", _TEXT, "department"),
                _attr("budget", _REAL, "money"),
                _attr("building", _TEXT, "venue"),
            )),
            EntitySpec("instructor", (
                _attr("name", _TEXT, "person_name"),
                _attr("salary", _REAL, "money"),
                _attr("title", _TEXT, "position"),
            )),
        ),
        relations=(
            RelationSpec(parent="department", child="course"),
            RelationSpec(parent="department", child="instructor"),
            RelationSpec(parent="student", child="course", kind="many_to_many",
                         junction_name="enrollment"),
        ),
    ),
    DomainSpec(
        name="airline_flights",
        topic_words=("travel", "aviation"),
        entities=(
            EntitySpec("airline", (
                _attr("name", _TEXT, "company"),
                _attr("country", _TEXT, "country"),
                _attr("fleet_size", _INT, "small_count"),
            )),
            EntitySpec("airport", (
                _attr("name", _TEXT, "venue"),
                _attr("city", _TEXT, "city"),
                _attr("code", _TEXT, "code"),
            )),
            EntitySpec("flight", (
                _attr("flight_number", _TEXT, "code"),
                _attr("distance", _REAL, "distance"),
                _attr("price", _REAL, "money"),
                _attr("departure_date", _DATE, "date"),
            )),
        ),
        relations=(
            RelationSpec(parent="airline", child="flight"),
            RelationSpec(parent="airport", child="flight"),
        ),
    ),
    DomainSpec(
        name="hospital_care",
        topic_words=("health", "medicine"),
        entities=(
            EntitySpec("patient", (
                _attr("name", _TEXT, "person_name"),
                _attr("age", _INT, "age"),
                _attr("city", _TEXT, "city"),
            )),
            EntitySpec("doctor", (
                _attr("name", _TEXT, "person_name"),
                _attr("specialty", _TEXT, "specialty"),
                _attr("salary", _REAL, "money"),
            )),
            EntitySpec("treatment", (
                _attr("name", _TEXT, "treatment"),
                _attr("cost", _REAL, "money"),
                _attr("duration", _INT, "duration"),
            )),
            EntitySpec("ward", (
                _attr("name", _TEXT, "department"),
                _attr("beds", _INT, "capacity"),
            )),
        ),
        relations=(
            RelationSpec(parent="ward", child="patient"),
            RelationSpec(parent="doctor", child="treatment"),
            RelationSpec(parent="patient", child="treatment", kind="many_to_many",
                         junction_name="patient_treatment"),
        ),
    ),
    DomainSpec(
        name="car_manufacturing",
        topic_words=("automotive", "industry"),
        entities=(
            EntitySpec("maker", (
                _attr("name", _TEXT, "company"),
                _attr("country", _TEXT, "country"),
                _attr("founded_year", _INT, "year"),
            )),
            EntitySpec("model", (
                _attr("name", _TEXT, "product"),
                _attr("horsepower", _INT, "horsepower"),
                _attr("price", _REAL, "money"),
                _attr("weight", _REAL, "weight"),
            )),
            EntitySpec("dealer", (
                _attr("name", _TEXT, "company"),
                _attr("city", _TEXT, "city"),
                _attr("rating", _REAL, "rating"),
            )),
        ),
        relations=(
            RelationSpec(parent="maker", child="model"),
            RelationSpec(parent="dealer", child="model", kind="many_to_many",
                         junction_name="dealer_stock"),
        ),
    ),
    DomainSpec(
        name="retail_orders",
        topic_words=("commerce", "shopping"),
        entities=(
            EntitySpec("customer", (
                _attr("name", _TEXT, "person_name"),
                _attr("city", _TEXT, "city"),
                _attr("email", _TEXT, "email"),
            )),
            EntitySpec("product", (
                _attr("name", _TEXT, "product"),
                _attr("price", _REAL, "money"),
                _attr("category", _TEXT, "category"),
                _attr("stock", _INT, "quantity"),
            )),
            EntitySpec("purchase", (
                _attr("order_date", _DATE, "date"),
                _attr("quantity", _INT, "quantity"),
                _attr("total_amount", _REAL, "money"),
            )),
        ),
        relations=(
            RelationSpec(parent="customer", child="purchase"),
            RelationSpec(parent="product", child="purchase"),
        ),
    ),
    DomainSpec(
        name="sports_league",
        topic_words=("sports", "competition"),
        entities=(
            EntitySpec("team", (
                _attr("name", _TEXT, "team"),
                _attr("city", _TEXT, "city"),
                _attr("wins", _INT, "small_count"),
                _attr("losses", _INT, "small_count"),
            )),
            EntitySpec("player", (
                _attr("name", _TEXT, "person_name"),
                _attr("age", _INT, "age"),
                _attr("position", _TEXT, "position"),
                _attr("salary", _REAL, "money"),
            )),
            EntitySpec("match", (
                _attr("season", _INT, "year"),
                _attr("attendance", _INT, "capacity"),
                _attr("home_score", _INT, "small_count"),
                _attr("away_score", _INT, "small_count"),
            )),
        ),
        relations=(
            RelationSpec(parent="team", child="player"),
            RelationSpec(parent="team", child="match"),
        ),
    ),
    DomainSpec(
        name="movie_streaming",
        topic_words=("entertainment", "film"),
        entities=(
            EntitySpec("movie", (
                _attr("title", _TEXT, "title"),
                _attr("release_year", _INT, "year"),
                _attr("rating", _REAL, "rating"),
                _attr("duration", _INT, "duration"),
            )),
            EntitySpec("director", (
                _attr("name", _TEXT, "person_name"),
                _attr("nationality", _TEXT, "country"),
            )),
            EntitySpec("actor", (
                _attr("name", _TEXT, "person_name"),
                _attr("age", _INT, "age"),
            )),
            EntitySpec("platform", (
                _attr("name", _TEXT, "company"),
                _attr("subscribers", _INT, "population"),
            )),
        ),
        relations=(
            RelationSpec(parent="director", child="movie"),
            RelationSpec(parent="actor", child="movie", kind="many_to_many",
                         junction_name="cast_member"),
            RelationSpec(parent="platform", child="movie", kind="many_to_many",
                         junction_name="streaming_catalog"),
        ),
    ),
    DomainSpec(
        name="library_books",
        topic_words=("reading", "archive"),
        entities=(
            EntitySpec("book", (
                _attr("title", _TEXT, "title"),
                _attr("publication_year", _INT, "year"),
                _attr("pages", _INT, "quantity"),
                _attr("genre", _TEXT, "genre"),
            )),
            EntitySpec("author", (
                _attr("name", _TEXT, "person_name"),
                _attr("nationality", _TEXT, "country"),
            )),
            EntitySpec("publisher", (
                _attr("name", _TEXT, "company"),
                _attr("city", _TEXT, "city"),
            )),
            EntitySpec("member", (
                _attr("name", _TEXT, "person_name"),
                _attr("join_date", _DATE, "date"),
            )),
        ),
        relations=(
            RelationSpec(parent="publisher", child="book"),
            RelationSpec(parent="author", child="book", kind="many_to_many",
                         junction_name="book_author"),
            RelationSpec(parent="member", child="book", kind="many_to_many",
                         junction_name="book_loan"),
        ),
    ),
    DomainSpec(
        name="banking_finance",
        topic_words=("finance", "money"),
        entities=(
            EntitySpec("account", (
                _attr("account_number", _TEXT, "code"),
                _attr("balance", _REAL, "money"),
                _attr("account_type", _TEXT, "category"),
            )),
            EntitySpec("branch", (
                _attr("name", _TEXT, "company"),
                _attr("city", _TEXT, "city"),
                _attr("assets", _REAL, "money"),
            )),
            EntitySpec("loan", (
                _attr("amount", _REAL, "money"),
                _attr("interest_rate", _REAL, "rating"),
                _attr("start_date", _DATE, "date"),
            )),
            EntitySpec("client", (
                _attr("name", _TEXT, "person_name"),
                _attr("city", _TEXT, "city"),
                _attr("credit_score", _INT, "capacity"),
            )),
        ),
        relations=(
            RelationSpec(parent="branch", child="account"),
            RelationSpec(parent="client", child="account"),
            RelationSpec(parent="client", child="loan"),
        ),
    ),
    DomainSpec(
        name="macro_economy",
        topic_words=("economy", "statistics"),
        entities=(
            EntitySpec("region", (
                _attr("name", _TEXT, "region"),
                _attr("population", _INT, "population"),
            )),
            EntitySpec("indicator", (
                _attr("name", _TEXT, "indicator"),
                _attr("unit", _TEXT, "unit"),
            )),
            EntitySpec("period", (
                _attr("year", _INT, "year"),
                _attr("quarter", _INT, "quarter"),
                _attr("period_type", _TEXT, "category"),
            )),
            EntitySpec("observation", (
                _attr("value", _REAL, "money"),
                _attr("is_estimate", _BOOL, "boolean"),
            )),
        ),
        relations=(
            RelationSpec(parent="region", child="observation"),
            RelationSpec(parent="indicator", child="observation"),
            RelationSpec(parent="period", child="observation"),
        ),
    ),
    DomainSpec(
        name="hotel_bookings",
        topic_words=("hospitality", "travel"),
        entities=(
            EntitySpec("hotel", (
                _attr("name", _TEXT, "company"),
                _attr("city", _TEXT, "city"),
                _attr("stars", _INT, "small_count"),
                _attr("rooms", _INT, "capacity"),
            )),
            EntitySpec("guest", (
                _attr("name", _TEXT, "person_name"),
                _attr("nationality", _TEXT, "country"),
            )),
            EntitySpec("booking", (
                _attr("check_in", _DATE, "date"),
                _attr("nights", _INT, "small_count"),
                _attr("price", _REAL, "money"),
            )),
        ),
        relations=(
            RelationSpec(parent="hotel", child="booking"),
            RelationSpec(parent="guest", child="booking"),
        ),
    ),
    DomainSpec(
        name="music_catalog",
        topic_words=("music", "audio"),
        entities=(
            EntitySpec("artist", (
                _attr("name", _TEXT, "person_name"),
                _attr("country", _TEXT, "country"),
                _attr("followers", _INT, "population"),
            )),
            EntitySpec("album", (
                _attr("title", _TEXT, "title"),
                _attr("release_year", _INT, "year"),
                _attr("sales", _INT, "population"),
            )),
            EntitySpec("song", (
                _attr("title", _TEXT, "title"),
                _attr("duration", _INT, "duration"),
                _attr("genre", _TEXT, "genre"),
            )),
        ),
        relations=(
            RelationSpec(parent="artist", child="album"),
            RelationSpec(parent="album", child="song"),
        ),
    ),
    DomainSpec(
        name="elections",
        topic_words=("politics", "government"),
        entities=(
            EntitySpec("candidate", (
                _attr("name", _TEXT, "person_name"),
                _attr("age", _INT, "age"),
                _attr("votes", _INT, "population"),
            )),
            EntitySpec("party", (
                _attr("name", _TEXT, "party"),
                _attr("founded_year", _INT, "year"),
                _attr("seats", _INT, "small_count"),
            )),
            EntitySpec("district", (
                _attr("name", _TEXT, "region"),
                _attr("registered_voters", _INT, "population"),
            )),
        ),
        relations=(
            RelationSpec(parent="party", child="candidate"),
            RelationSpec(parent="district", child="candidate"),
        ),
    ),
    DomainSpec(
        name="logistics_supply",
        topic_words=("logistics", "operations"),
        entities=(
            EntitySpec("warehouse", (
                _attr("name", _TEXT, "venue"),
                _attr("city", _TEXT, "city"),
                _attr("capacity", _INT, "capacity"),
            )),
            EntitySpec("supplier", (
                _attr("name", _TEXT, "company"),
                _attr("country", _TEXT, "country"),
                _attr("rating", _REAL, "rating"),
            )),
            EntitySpec("shipment", (
                _attr("weight", _REAL, "weight"),
                _attr("ship_date", _DATE, "date"),
                _attr("cost", _REAL, "money"),
            )),
            EntitySpec("item", (
                _attr("name", _TEXT, "product"),
                _attr("unit_price", _REAL, "money"),
                _attr("category", _TEXT, "category"),
            )),
        ),
        relations=(
            RelationSpec(parent="warehouse", child="shipment"),
            RelationSpec(parent="supplier", child="shipment"),
            RelationSpec(parent="shipment", child="item", kind="many_to_many",
                         junction_name="shipment_item"),
        ),
    ),
    DomainSpec(
        name="tv_broadcast",
        topic_words=("television", "media"),
        entities=(
            EntitySpec("channel", (
                _attr("name", _TEXT, "company"),
                _attr("country", _TEXT, "country"),
                _attr("launch_year", _INT, "year"),
            )),
            EntitySpec("series", (
                _attr("title", _TEXT, "title"),
                _attr("seasons", _INT, "small_count"),
                _attr("rating", _REAL, "rating"),
            )),
            EntitySpec("episode", (
                _attr("title", _TEXT, "title"),
                _attr("air_date", _DATE, "date"),
                _attr("viewers", _INT, "population"),
            )),
        ),
        relations=(
            RelationSpec(parent="channel", child="series"),
            RelationSpec(parent="series", child="episode"),
        ),
    ),
    DomainSpec(
        name="charity_donations",
        topic_words=("charity", "nonprofit"),
        entities=(
            EntitySpec("charity", (
                _attr("name", _TEXT, "company"),
                _attr("cause", _TEXT, "category"),
                _attr("founded_year", _INT, "year"),
            )),
            EntitySpec("donor", (
                _attr("name", _TEXT, "person_name"),
                _attr("city", _TEXT, "city"),
            )),
            EntitySpec("donation", (
                _attr("amount", _REAL, "money"),
                _attr("donation_date", _DATE, "date"),
                _attr("is_recurring", _BOOL, "boolean"),
            )),
        ),
        relations=(
            RelationSpec(parent="charity", child="donation"),
            RelationSpec(parent="donor", child="donation"),
        ),
    ),
    DomainSpec(
        name="real_estate",
        topic_words=("property", "housing"),
        entities=(
            EntitySpec("property", (
                _attr("address", _TEXT, "address"),
                _attr("price", _REAL, "money"),
                _attr("bedrooms", _INT, "small_count"),
                _attr("area", _REAL, "area"),
            )),
            EntitySpec("agent", (
                _attr("name", _TEXT, "person_name"),
                _attr("agency", _TEXT, "company"),
                _attr("commission_rate", _REAL, "rating"),
            )),
            EntitySpec("viewing", (
                _attr("viewing_date", _DATE, "date"),
                _attr("feedback_score", _INT, "small_count"),
            )),
        ),
        relations=(
            RelationSpec(parent="property", child="viewing"),
            RelationSpec(parent="agent", child="viewing"),
        ),
    ),
    DomainSpec(
        name="energy_grid",
        topic_words=("energy", "utilities"),
        entities=(
            EntitySpec("plant", (
                _attr("name", _TEXT, "venue"),
                _attr("fuel_type", _TEXT, "category"),
                _attr("capacity", _REAL, "capacity"),
            )),
            EntitySpec("operator", (
                _attr("name", _TEXT, "company"),
                _attr("country", _TEXT, "country"),
            )),
            EntitySpec("reading", (
                _attr("reading_date", _DATE, "date"),
                _attr("output", _REAL, "capacity"),
                _attr("efficiency", _REAL, "rating"),
            )),
        ),
        relations=(
            RelationSpec(parent="operator", child="plant"),
            RelationSpec(parent="plant", child="reading"),
        ),
    ),
    DomainSpec(
        name="investment_funds",
        topic_words=("investment", "markets"),
        entities=(
            EntitySpec("fund", (
                _attr("name", _TEXT, "company"),
                _attr("inception_year", _INT, "year"),
                _attr("total_assets", _REAL, "money"),
            )),
            EntitySpec("security", (
                _attr("ticker", _TEXT, "code"),
                _attr("sector", _TEXT, "category"),
                _attr("price", _REAL, "money"),
            )),
            EntitySpec("holding", (
                _attr("shares", _INT, "quantity"),
                _attr("market_value", _REAL, "money"),
            )),
            EntitySpec("trade", (
                _attr("trade_date", _DATE, "date"),
                _attr("quantity", _INT, "quantity"),
                _attr("side", _TEXT, "category"),
            )),
        ),
        relations=(
            RelationSpec(parent="fund", child="holding"),
            RelationSpec(parent="security", child="holding"),
            RelationSpec(parent="fund", child="trade"),
            RelationSpec(parent="security", child="trade"),
        ),
    ),
    DomainSpec(
        name="restaurant_reviews",
        topic_words=("dining", "food"),
        entities=(
            EntitySpec("restaurant", (
                _attr("name", _TEXT, "company"),
                _attr("city", _TEXT, "city"),
                _attr("cuisine", _TEXT, "category"),
                _attr("average_price", _REAL, "money"),
            )),
            EntitySpec("reviewer", (
                _attr("name", _TEXT, "person_name"),
                _attr("review_count", _INT, "small_count"),
            )),
            EntitySpec("review", (
                _attr("rating", _REAL, "rating"),
                _attr("review_date", _DATE, "date"),
            )),
        ),
        relations=(
            RelationSpec(parent="restaurant", child="review"),
            RelationSpec(parent="reviewer", child="review"),
        ),
    ),
    DomainSpec(
        name="research_grants",
        topic_words=("research", "science"),
        entities=(
            EntitySpec("researcher", (
                _attr("name", _TEXT, "person_name"),
                _attr("field", _TEXT, "subject"),
                _attr("h_index", _INT, "small_count"),
            )),
            EntitySpec("grant", (
                _attr("title", _TEXT, "title"),
                _attr("amount", _REAL, "money"),
                _attr("start_year", _INT, "year"),
            )),
            EntitySpec("institution", (
                _attr("name", _TEXT, "company"),
                _attr("country", _TEXT, "country"),
                _attr("ranking", _INT, "small_count"),
            )),
        ),
        relations=(
            RelationSpec(parent="institution", child="researcher"),
            RelationSpec(parent="researcher", child="grant", kind="many_to_many",
                         junction_name="grant_award"),
        ),
    ),
    DomainSpec(
        name="insurance_claims",
        topic_words=("insurance", "risk"),
        entities=(
            EntitySpec("policy", (
                _attr("policy_number", _TEXT, "code"),
                _attr("premium", _REAL, "money"),
                _attr("coverage_type", _TEXT, "category"),
            )),
            EntitySpec("policyholder", (
                _attr("name", _TEXT, "person_name"),
                _attr("age", _INT, "age"),
                _attr("city", _TEXT, "city"),
            )),
            EntitySpec("claim", (
                _attr("claim_date", _DATE, "date"),
                _attr("amount", _REAL, "money"),
                _attr("status", _TEXT, "status"),
            )),
        ),
        relations=(
            RelationSpec(parent="policyholder", child="policy"),
            RelationSpec(parent="policy", child="claim"),
        ),
    ),
)


def domain_by_name(name: str) -> DomainSpec:
    """Look up a domain by its base name."""
    for domain in DOMAINS:
        if domain.name == name:
            return domain
    raise KeyError(f"unknown domain {name!r}")
